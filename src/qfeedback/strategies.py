"""Constructive feedback coding strategies for asymmetric channels.

Three schemes, plus a non-adaptive baseline:

* zero_error_unidirectional_strategy: survives any number of unidirectional
  errors by spending the alphabet (even symbols only) and one adaptive flag.
* modified_rubber_strategy: for a single Z or inverse-Z channel.  A reserved
  run of r "rubber" symbols tells the receiver to delete the run and bump
  the symbol before it, which repairs one error at a cost of exactly r
  block positions.  No retransmission ever happens.
* unidirectional_rubber_strategy: the rubber scheme when the error
  direction is unknown in advance.  The sender commits to the channel's
  direction at the first error (it sees every delivered symbol), and the
  last block position carries a flag telling the receiver which parse to
  apply.  Its codebook reserves both ends of the alphabet where the
  one-sided scheme reserves one.

Both rubber schemes rest on one receiver rule, written once (_settle):
when r rubber symbols complete a run, delete the run and bump the symbol
it uncovers.  The receiver's parse (rubber_stack_parse) and both senders'
stacks are settled by that rule alone, so a sender's stack is the
receiver's parse of what has been delivered so far.  Which rubber, which
bump and which fill belong to an error direction is written once too
(_convention).

All encoders are pure: the next symbol is a function of (message, received
prefix) alone, which is what makes exhaustive game-tree search possible.
Every scheme's encode_step is its declared sender (session.Sender): an
immutable state, a start per message, a feed per delivered symbol and an
emit of the next input.  The verifier, run_session and replay fold that
state along their own path; called on (message, prefix), the Sender runs
the fold afresh.  So a built-in Strategy holds no mutable state, and one
may be shared across threads.  A rubber sender's stack is
codeword[:matched] + tail, matched the length of its common prefix with
the codeword: the modified rubber state is (codeword, matched, tail,
message), and the unidirectional one adds the position and the phase,
the channel's DirectionState, its stack pushed from the first symbol on.
So a feed or an emit does no work in the block length: it compares one
codeword symbol and settles the tail, which a repair keeps short.
zero_error and identity hold the message digits, computed once per
message.  The two rubber schemes and zero_error also declare one key for
the verifier's whole search, on their own channel only (_key_for);
_search_key gives the rubber schemes' soundness argument, and
zero_error's docstring its own.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from ._checks import check_at_least
from .channels import DirectionState, UnidirectionalChannel, make_inverse_z_channel, make_z_channel
from .codebook import RunConstraint, count, is_valid, rank, unrank
from .session import Channel, Sender, Strategy


def _convention(q: int, direction: DirectionState) -> tuple[int, int, int]:
    """(rubber, correction, fill) of the rubber scheme for errors in one
    direction.  Downward errors use rubber q-1, repairs increment, and the
    fill is 0, the one symbol that channel cannot touch; upward errors
    mirror all three.  UNDECIDED, a clean prefix, takes the down one."""
    if direction is DirectionState.POSITIVE:
        return 0, -1, q - 1
    return q - 1, +1, 0


# each side of the modified rubber scheme: its error direction and its own channel
_SIDES = {"z": (DirectionState.NEGATIVE, make_z_channel), "invz": (DirectionState.POSITIVE, make_inverse_z_channel)}


def _settle(stack: list[int], rubber: int, correction: int, run_length: int) -> list[int]:
    """The rubber rule, once for both ends: while the top run_length
    entries all equal rubber, pop them and add correction to the symbol now
    on top, then re-check, so a repaired repair cascades."""
    while stack and stack[-1] == rubber and stack[-run_length:].count(rubber) == run_length:
        del stack[-run_length:]
        if stack:
            stack[-1] += correction
    return stack


def rubber_stack_parse(symbols: Sequence[int], *, rubber: int, correction: int, run_length: int) -> list[int]:
    """Receiver-side parse shared by all rubber decoders.

    Push each symbol onto one list and settle it by the rubber rule, so a
    parse is linear in the word's length.  Only a rubber symbol can
    complete a run, so no other push needs settling.
    """
    stack: list[int] = []
    for y in symbols:
        stack.append(y)
        if y == rubber:
            _settle(stack, rubber, correction, run_length)
    return stack


def _push(
    w: Sequence[int], matched: int, tail: tuple[int, ...], y: int, rubber: int, correction: int, run_length: int
) -> tuple[int, tuple[int, ...]]:
    """Push y onto the sender's stack w[:matched] + tail and settle it.

    Returns (matched, tail) again, matched the length of the stack's
    common prefix with the codeword w.  Only a rubber push can settle
    anything.  While tail[0] is neither rubber nor one correction short of
    it, no pop reaches it (it could only turn into rubber by a bump, and
    one settle bumps it at most once, on top), so the tail settles alone
    and only a bumped tail[0] can turn back into w[matched].  Otherwise
    the whole stack settles: a pop below matched leaves one bumped symbol
    on top of the rest of w's prefix, and a bump can restore w[matched].
    """
    if y != rubber:
        return matched, tail + (y,)
    if tail and tail[0] != rubber and tail[0] + correction != rubber:
        stack = _settle([*tail, y], rubber, correction, run_length)
        if len(stack) == 1 and matched < len(w) and stack[0] == w[matched]:
            return matched + 1, ()
        return matched, tuple(stack)
    stack = _settle([*w[:matched], *tail, y], rubber, correction, run_length)
    matched = min(matched, len(stack))
    if matched and stack[matched - 1] != w[matched - 1]:
        matched -= 1
    elif matched < min(len(stack), len(w)) and stack[matched] == w[matched]:
        matched += 1
    return matched, tuple(stack[matched:])


def _search_key(q: int, k: int, n: int) -> Callable[[Any], int]:
    """The table key of a rubber sender state, one integer for every message.

    It packs the unread suffix codeword[matched:], the tail, and whether
    the message is 0; every state with the whole codeword matched gets
    one key, -1.  The suffix is its base-q value packed with matched,
    which fixes how many digits it has.  The tail's symbols are digits
    below q where a key is declared, and its length is below n + 1, so
    the packing is injective.  The suffix codes are computed once per
    message, at its first keyed node, in O(k).

    Soundness, where _key_for declares the key: a search of the scheme's
    own channel with a budget up to its t.  There every error moves a
    sent symbol one step against the repair, within the alphabet, rubber
    arrives only as itself and the fill is never corrupted, so the tail
    never starts with rubber, no pop reaches below matched, and
    codeword[:matched] stays in the stack.  Each pop repairs one error,
    so with at most t errors the final stack is at least k long (a
    shorter one would rank among shorter words, by its whole prefix).
    Below a node, the inputs and the rest of the stack depend on the
    state only through the unread suffix and the tail, so each leaf's
    stack is codeword[:matched] + X, with X the same below every state of
    one key.  Decode is right where X starts with the unread suffix,
    which the key names; otherwise the first k symbols are a valid word
    that is not the codeword, which decodes wrong, or an invalid one,
    which decodes to 0.  Whether codeword[:matched] + X is valid depends
    on the trailing reserved run of codeword[:matched], so that run
    matters to a leaf's safety only for message 0, and the message-0 bit
    keeps message 0 apart (every search with a declared key succeeds, so
    no check can observe the bit; it keeps the argument whole).  So
    states with equal keys, at equal depth, budget left and direction,
    root subtrees of one size that are safe together, whatever their
    messages.  Once matched == k nothing below can undo the codeword:
    every leaf decodes right, and the inputs below (the fill, the filler,
    the flag) depend only on the depth and the direction.
    """
    keyed, codes = None, ()

    def key(state) -> int:
        nonlocal keyed, codes
        if state.matched == k:
            return -1
        if state.message != keyed:
            # codes[L] = (base-q value of codeword[L:]) * k + L, built from the right
            keyed, codes, value, power = state.message, [0] * k, 0, 1
            for L in range(k - 1, -1, -1):
                value += state.codeword[L] * power
                power *= q
                codes[L] = value * k + L
        code = codes[state.matched]
        for s in state.tail:
            code = code * q + s
        return (code * (n + 1) + len(state.tail)) * 2 + (state.message == 0)

    return key


def _key_for(own: Callable[[int], Channel], q: int, t: int, key: Callable[[], Callable[[Any], int]]):
    """A scheme's key_for: a search-wide key, from key(), on its own
    channel, own(q), for a budget up to its t, and no key for any other
    search, which walks with no table."""

    def key_for(channel: Channel, budget: int) -> Optional[Callable[[Any], int]]:
        return key() if channel == own(q) and budget <= t else None

    return key_for


def _decode_word(constraint, word: Sequence[int]) -> int:
    """Total decode: invalid words (unreachable under the channel) map to 0."""
    word = tuple(word)
    if not is_valid(constraint, word):
        return 0
    return rank(constraint, word)


def _digits(m: int, base: int, length: int) -> tuple[int, ...]:
    """The lowest `length` digits of m in the given base, most significant first."""
    out = []
    for _ in range(length):
        out.append(m % base)
        m //= base
    return tuple(reversed(out))


class RubberState(NamedTuple):
    """Sender state of the modified rubber scheme.

    The receiver's parse of everything delivered so far is
    codeword[:matched] + tail, matched the length of its common prefix
    with the codeword.
    """

    codeword: tuple[int, ...]
    matched: int
    tail: tuple[int, ...]
    message: int


def modified_rubber_strategy(q: int, r: int, side: str, n: int, t: int) -> Strategy:
    """Rubber scheme for one committed channel direction.

    side "z": errors decrement symbols; rubber is q-1, repairs increment,
    fill is 0 (the one symbol the channel cannot touch).  side "invz" is
    the mirror image.  Info words have length k = n - r*t and avoid an
    r-run of the rubber symbol, so a corrupted info symbol can never be
    mistaken for rubber by the adversary's doing, and every error costs
    exactly r extra positions.

    The sender sends the fill once the stack holds the codeword
    (matched == k), the rubber symbol while a tail is pending (a repair),
    and the next codeword symbol otherwise.

    Table key (_key_for): on the side's own channel (make_z_channel(q)
    for "z") with a budget up to t.  Elsewhere a key would be unsound: on
    sym, say, the adversary forges rubber and pops into the matched
    prefix, and with a budget above t a final stack can fall short of k.
    """
    q = check_at_least(q, 2, "alphabet size")
    r = check_at_least(r, 1, "run length")
    t = check_at_least(t, 0, "error budget")
    n = check_at_least(n, r * t, "block length")
    k = n - r * t
    if side not in _SIDES:
        raise ValueError(f"side must be 'z' or 'invz', got {side!r}")
    direction, own = _SIDES[side]
    rubber, correction, fill = _convention(q, direction)
    constraint = RunConstraint(q, (rubber,), r)
    message_count = count(constraint, k)

    def start(m: int) -> RubberState:
        return RubberState(unrank(constraint, k, m), 0, (), m)

    def feed(state: RubberState, y: int) -> RubberState:
        w, matched, tail, m = state
        if tail or matched == k or y != w[matched]:
            matched, tail = _push(w, matched, tail, y, rubber, correction, r)
        else:
            matched += 1
        return RubberState(w, matched, tail, m)

    def emit(state: RubberState) -> int:
        if state.matched == k:
            return fill
        return rubber if state.tail else state.codeword[state.matched]

    def decode(received: tuple[int, ...]) -> int:
        stack = rubber_stack_parse(received, rubber=rubber, correction=correction, run_length=r)
        return _decode_word(constraint, stack[:k])

    name = f"modified_rubber(q={q},r={r},side={side},n={n},t={t})"
    key_for = _key_for(own, q, t, lambda: _search_key(q, k, n))
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode, key_for), decode)


def zero_error_unidirectional_strategy(q: int, n: int) -> Strategy:
    """Survives ANY number of unidirectional errors (budget up to n).

    The first n-1 positions carry even symbols only.  A one-step error
    turns an even symbol into an odd one, which pins the original down as
    soon as the error direction is known.  The sender learns the direction
    from feedback and announces it in the last position: 0 for "no error
    or decrements", q-1 for "increments".  Both announcements are immune
    to the respective committed channel; the only corruptible case is a
    clean block whose trailing 0 gets incremented, and then the prefix is
    clean anyway.

    Sender state: (digits, position, upward error seen), the digits
    computed once per message.

    Table key (_key_for): on UnidirectionalChannel(q), for every budget
    up to n, the unread digits word[i:] as one base-(q+1)//2 integer, so
    no message is named; the depth i fixes how many digits there are.
    Soundness: on that channel the sender sees an upward error exactly
    when the channel commits POSITIVE, so the entry's direction fixes the
    flag the sender will send, and with it how every received prefix
    symbol rounds.  An UNDECIDED prefix is clean: every symbol is the even
    one sent.  On NEGATIVE the flag is 0, which the channel cannot lower,
    so decode rounds a received 2w-1 up to 2w; on POSITIVE the flag is
    q-1, which it cannot raise, so decode rounds 2w+1 down to 2w.  Either
    way every received prefix symbol decodes to its own digit, and the
    inputs below a node, its children and whether each leaf decodes right
    depend only on the unread digits, the depth, the budget left and the
    direction.
    """
    q = check_at_least(q, 2, "alphabet size")
    n = check_at_least(n, 1, "block length")
    base = (q + 1) // 2
    message_count = base ** (n - 1)

    def decode(received: tuple[int, ...]) -> int:
        # flag 0 rounds odd symbols up, any other flag rounds them down;
        # flag 1: a clean block whose trailing 0 took the only error
        step = 1 if received[-1] == 0 else -1
        evens = [y + step if y % 2 else y for y in received[: n - 1]]
        m = 0
        for e in evens:
            m = m * base + min(e // 2, base - 1)
        return m

    def start(m: int) -> tuple[tuple[int, ...], int, bool]:
        return _digits(m, base, n - 1), 0, False

    def feed(state: tuple[tuple[int, ...], int, bool], y: int) -> tuple[tuple[int, ...], int, bool]:
        word, i, up = state
        return word, i + 1, up or (i < n - 1 and y > 2 * word[i])

    def emit(state: tuple[tuple[int, ...], int, bool]) -> int:
        word, i, up = state
        if i < n - 1:
            return 2 * word[i]
        return q - 1 if up else 0

    def key(state: tuple[tuple[int, ...], int, bool]) -> int:
        word, i, _ = state
        code = 0
        for digit in word[i:]:
            code = code * base + digit
        return code

    name = f"zero_error_unidirectional(q={q},n={n})"
    key_for = _key_for(UnidirectionalChannel, q, n, lambda: key)
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode, key_for), decode)


class UniState(NamedTuple):
    """Sender state of the unidirectional rubber scheme."""

    codeword: tuple[int, ...]
    position: int
    # UNDECIDED while clean, else the direction of the first error
    phase: DirectionState
    # the receiver's parse of everything delivered so far is
    # codeword[:matched] + tail: under the down convention while clean (a
    # clean prefix parses to itself under either), under the committed one
    # from the first error on
    matched: int
    tail: tuple[int, ...]
    message: int


def unidirectional_rubber_strategy(q: int, r: int, n: int, t: int) -> Strategy:
    """Rubber scheme when the error direction is unknown in advance.

    Info words have length k = n - r*t - 1 and avoid r-runs of BOTH 0 and
    q-1, because until the first error either direction is still possible
    and the receiver may end up parsing the block under either rubber
    convention.  The double constraint also blocks repair cascades from
    reaching into the codeword.

    Error-free filler cycles through (1, then r-1 zeros), which no parse
    mistakes for rubber.  On the first error the sender commits to that
    error's convention (_convention): downward errors keep the Z-side one
    (rubber q-1, repairs increment), upward errors switch to the
    inverse-Z one over the WHOLE received prefix (rubber 0, repairs
    decrement) - the first repair's pops decrement the corrupted symbol
    back in place, so nothing is ever retransmitted and each error still
    costs exactly r positions.

    The final position is a flag, the committed convention's fill: 0
    means "parse under the Z convention" (also the clean case), q-1 means
    "parse under the inverse-Z convention".  Both flags are immune to
    their committed channel; a clean block's flag 0 can only be corrupted
    to 1, which tells the receiver the prefix is verbatim.

    The sender's phase is the channel's direction: UNDECIDED while clean,
    NEGATIVE or POSITIVE once committed.  Its stack is pushed from the
    first symbol on, under the down convention while clean and under the
    committed one from the first error on, that error's symbol included.
    No clean prefix holds an r-run of 0 or of q-1 (the codeword avoids
    both, the filler is 1 then r-1 zeros), so either convention parses it
    to itself, and pushing the first error onto it gives the committed
    parse of the whole received prefix.

    Table key (_key_for): on UnidirectionalChannel(q) with a budget up
    to t, where the sender and the channel commit at the same error, the
    same way.  So the phase is the table entry's direction and the
    position its depth, every committed error is a one-step move against
    the committed repair, and the flag is immune once committed; while
    clean, its one corruption reads the clean prefix verbatim, which is
    the same parse.
    """
    q = check_at_least(q, 3, "alphabet size")
    r = check_at_least(r, 2, "run length")
    t = check_at_least(t, 0, "error budget")
    n = check_at_least(n, r * t + 1, "block length")
    k = n - r * t - 1
    constraint = RunConstraint(q, (0, q - 1), r)
    message_count = count(constraint, k)
    conventions = {phase: _convention(q, phase) for phase in DirectionState}
    down, up = conventions[DirectionState.NEGATIVE], conventions[DirectionState.POSITIVE]

    def start(m: int) -> UniState:
        return UniState(unrank(constraint, k, m), 0, DirectionState.UNDECIDED, 0, (), m)

    def emit(state: UniState) -> int:
        w, i, phase, matched, tail, _ = state
        if i == n - 1:
            return conventions[phase][2]
        if phase is DirectionState.UNDECIDED:
            # with no error so far, exactly i symbols stand delivered
            if i < k:
                return w[i]
            return 1 if (i - k) % r == 0 else 0
        rubber, _, fill = conventions[phase]
        if matched == k:
            return fill
        return rubber if tail else w[matched]

    def feed(state: UniState, y: int) -> UniState:
        w, i, phase, matched, tail, m = state
        if phase is DirectionState.UNDECIDED:
            x = emit(state)
            if y != x:
                phase = DirectionState.POSITIVE if y > x else DirectionState.NEGATIVE
        if tail or matched == k or y != w[matched]:
            rubber, correction, _ = conventions[phase]
            matched, tail = _push(w, matched, tail, y, rubber, correction, r)
        else:
            matched += 1
        return UniState(w, i + 1, phase, matched, tail, m)

    def decode(received: tuple[int, ...]) -> int:
        flag = received[-1]
        body = received[: n - 1]
        if flag == 1:
            stack = list(body)
        else:
            # the flag is the committed convention's fill; values no sender
            # sends are unreachable and fall back to the down parse
            rubber, correction, _ = up if flag == up[2] else down
            stack = rubber_stack_parse(body, rubber=rubber, correction=correction, run_length=r)
        return _decode_word(constraint, stack[:k])

    name = f"unidirectional_rubber(q={q},r={r},n={n},t={t})"
    key_for = _key_for(UnidirectionalChannel, q, t, lambda: _search_key(q, k, n))
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode, key_for), decode)


def identity_strategy(q: int, n: int) -> Strategy:
    """Non-adaptive baseline: send the message digits, read them back.

    M = q^n leaves no redundancy, so any corruptible codeword yields a
    decoding collision; the verifier uses this as its negative control.

    Sender state: (digits, position), the digits computed once per
    message.  No table key.
    """
    q = check_at_least(q, 2, "alphabet size")
    n = check_at_least(n, 1, "block length")
    message_count = q ** n

    def decode(received: tuple[int, ...]) -> int:
        m = 0
        for y in received:
            m = m * q + min(max(y, 0), q - 1)
        return m

    def start(m: int) -> tuple[tuple[int, ...], int]:
        return _digits(m, q, n), 0

    def feed(state: tuple[tuple[int, ...], int], y: int) -> tuple[tuple[int, ...], int]:
        return state[0], state[1] + 1

    def emit(state: tuple[tuple[int, ...], int]) -> int:
        return state[0][state[1]]

    return Strategy(f"identity(q={q},n={n})", message_count, n, Sender(start, feed, emit, decode), decode)
