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

All encoders are pure: the next symbol is a function of (message, received
prefix) alone, which is what makes exhaustive game-tree search possible.
Every scheme's encode_step is its declared sender (session.Sender): an
immutable state, a start per message, a feed per delivered symbol and an
emit of the next input.  The verifier, run_session and replay fold that
state along their own path; called on (message, prefix), the Sender runs
the fold afresh.  So a built-in Strategy holds no mutable state, and one
may be shared across threads.  The modified rubber state is (codeword,
receiver stack) and the unidirectional rubber state is (codeword,
position, phase, receiver stack), its phase the channel's DirectionState
and its stack pushed from the first symbol on.  zero_error and identity
hold the message digits, computed once per message.  The two rubber
schemes also declare a key for the verifier's transposition table; each
builder's docstring gives the soundness argument.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .channels import DirectionState
from .codebook import RunConstraint, count, is_valid, rank, unrank
from .session import Sender, Strategy


def _push(stack: tuple[int, ...], y: int, *, rubber: int, correction: int, run_length: int) -> tuple[int, ...]:
    """The receiver's stack after one more delivered symbol.

    Push y; whenever the top run_length entries all equal rubber, pop them
    and add correction to the symbol now on top, then re-check.  The
    re-check matters: a repaired repair cascades.
    """
    stack += (y,)
    run = (rubber,) * run_length
    while stack[-run_length:] == run:
        stack = stack[:-run_length]
        if stack:
            stack = stack[:-1] + (stack[-1] + correction,)
    return stack


def rubber_stack_parse(symbols: Sequence[int], *, rubber: int, correction: int, run_length: int) -> list[int]:
    """Receiver-side parse shared by all rubber decoders.

    The _push rule, symbol by symbol, on one list instead of a new tuple
    per symbol, so a parse is linear in the word's length.
    """
    stack: list[int] = []
    run = [rubber] * run_length
    for y in symbols:
        stack.append(y)
        while stack and stack[-1] == rubber and stack[-run_length:] == run:
            del stack[-run_length:]
            if stack:
                stack[-1] += correction
    return stack


def _automaton_next(w: tuple[int, ...], stack: tuple[int, ...], rubber: int, fill: int) -> int:
    """Sender rule given the receiver's current stack.

    Send the next info symbol while the stack is a proper prefix of the
    codeword, the fill once the codeword is safely delivered, and the
    rubber symbol whenever the stack deviates (a repair is pending).
    """
    k = len(w)
    if len(stack) < k:
        if stack == w[: len(stack)]:
            return w[len(stack)]
        return rubber
    if stack[:k] == w:
        return fill
    return rubber


def _decode_word(constraint, word: Sequence[int], message_count: int) -> int:
    """Total decode: invalid words (unreachable under the channel) map to 0."""
    word = tuple(word)
    if message_count <= 1 or not is_valid(constraint, word):
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
    """Sender state of the modified rubber scheme."""

    codeword: tuple[int, ...]
    # the receiver's parse of everything delivered so far
    stack: tuple[int, ...]


def modified_rubber_strategy(q: int, r: int, side: str, n: int, t: int) -> Strategy:
    """Rubber scheme for one committed channel direction.

    side "z": errors decrement symbols; rubber is q-1, repairs increment,
    fill is 0 (the one symbol the channel cannot touch).  side "invz" is
    the mirror image.  Info words have length k = n - r*t and avoid an
    r-run of the rubber symbol, so a corrupted info symbol can never be
    mistaken for rubber by the adversary's doing, and every error costs
    exactly r extra positions.

    Memo key: the sender state (codeword, receiver stack), on every
    channel.  The next input is emit(state) and the next state is
    feed(state, y), so the state fixes every input below the node; decode
    ranks the parse of the whole received word, and that parse is the
    stack after the node, pushed with the symbols delivered below it.  So
    equal states at equal depth, budget and direction root identical
    subtrees.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if r < 1:
        raise ValueError(f"run length must be at least 1, got {r}")
    if t < 0:
        raise ValueError("error budget must be nonnegative")
    k = n - r * t
    if k < 0:
        raise ValueError(f"block length {n} cannot host {t} repairs of cost {r}")
    if side == "z":
        rubber, correction, fill = q - 1, +1, 0
    elif side == "invz":
        rubber, correction, fill = 0, -1, q - 1
    else:
        raise ValueError(f"side must be 'z' or 'invz', got {side!r}")
    constraint = RunConstraint(q, (rubber,), r)
    message_count = count(constraint, k)
    convention = dict(rubber=rubber, correction=correction, run_length=r)

    def start(m: int) -> RubberState:
        return RubberState(unrank(constraint, k, m), ())

    def feed(state: RubberState, y: int) -> RubberState:
        return RubberState(state.codeword, _push(state.stack, y, **convention))

    def emit(state: RubberState) -> int:
        return _automaton_next(state.codeword, state.stack, rubber, fill)

    def decode(received: tuple[int, ...]) -> int:
        stack = rubber_stack_parse(received, **convention)
        return _decode_word(constraint, stack[:k], message_count)

    def sender_key(state: RubberState, direction: DirectionState) -> RubberState:
        return state

    name = f"modified_rubber(q={q},r={r},side={side},n={n},t={t})"
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode, sender_key), decode)


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
    computed once per message.  No memo key.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if n < 1:
        raise ValueError(f"block length must be at least 1, got {n}")
    base = (q + 1) // 2
    message_count = base ** (n - 1)

    def decode(received: tuple[int, ...]) -> int:
        flag = received[-1]
        body = received[: n - 1]
        if flag == 0:
            evens = [y + 1 if y % 2 else y for y in body]
        elif flag == q - 1 and q > 2:
            evens = [y - 1 if y % 2 else y for y in body]
        else:
            # flag 1: a clean block whose trailing 0 took the only error
            evens = [y if y % 2 == 0 else y - 1 for y in body]
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

    name = f"zero_error_unidirectional(q={q},n={n})"
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode), decode)


class UniState(NamedTuple):
    """Sender state of the unidirectional rubber scheme."""

    codeword: tuple[int, ...]
    position: int
    # UNDECIDED while clean, else the direction of the first error
    phase: DirectionState
    # the receiver's parse of everything delivered so far: under the down
    # convention while clean (a clean prefix parses to itself under either),
    # under the committed one from the first error on
    stack: tuple[int, ...]


def unidirectional_rubber_strategy(q: int, r: int, n: int, t: int) -> Strategy:
    """Rubber scheme when the error direction is unknown in advance.

    Info words have length k = n - r*t - 1 and avoid r-runs of BOTH 0 and
    q-1, because until the first error either direction is still possible
    and the receiver may end up parsing the block under either rubber
    convention.  The double constraint also blocks repair cascades from
    reaching into the codeword.

    Error-free filler cycles through (1, then r-1 zeros), which no parse
    mistakes for rubber.  On the first error the sender commits: downward
    errors keep the Z-side automaton (rubber q-1, repairs increment),
    upward errors switch to the inverse-Z automaton over the WHOLE received
    prefix (rubber 0, repairs decrement) - the first repair's pops
    decrement the corrupted symbol back in place, so nothing is ever
    retransmitted and each error still costs exactly r positions.

    The final position is a flag: 0 means "parse under the Z convention"
    (also the clean case), q-1 means "parse under the inverse-Z
    convention".  Both flags are immune to their committed channel; a
    clean block's flag 0 can only be corrupted to 1, which tells the
    receiver the prefix is verbatim.

    The sender's phase is the channel's direction: UNDECIDED while clean,
    NEGATIVE or POSITIVE once committed.  Its stack is pushed from the
    first symbol on, under the down convention while clean and under the
    committed one from the first error on, that error's symbol included.
    No clean prefix holds an r-run of 0 or of q-1 (the codeword avoids
    both, the filler is 1 then r-1 zeros), so either convention parses it
    to itself, and pushing the first error onto it gives the committed
    parse of the whole received prefix.

    Memo key: the sender state, at two kinds of node only.  With no error
    yet, the received prefix is the clean prefix, and the state is fixed by
    (codeword, position).  With the channel's direction committed, the flag
    is immune, so decode applies the committed phase's parse, whose stack
    the state holds.  Either way the state fixes every input below the node
    and every leaf's decode.  At any other node (an error on a channel
    that commits no direction, such as a graph) the adversary may corrupt
    the flag into a parse the state does not hold, and the key is None.
    On the unidirectional channel every node is of the two kinds.
    """
    if q < 3:
        raise ValueError(f"alphabet size must be at least 3, got {q}")
    if r < 2:
        raise ValueError(f"run length must be at least 2, got {r}")
    if t < 0:
        raise ValueError("error budget must be nonnegative")
    k = n - r * t - 1
    if k < 0:
        raise ValueError(f"block length {n} cannot host {t} repairs of cost {r} plus a flag")
    constraint = RunConstraint(q, (0, q - 1), r)
    message_count = count(constraint, k)
    down = dict(rubber=q - 1, correction=+1, run_length=r)
    up = dict(rubber=0, correction=-1, run_length=r)
    conventions = {DirectionState.UNDECIDED: down, DirectionState.NEGATIVE: down, DirectionState.POSITIVE: up}

    def clean_symbol(w: tuple[int, ...], i: int) -> int:
        # With no error so far, exactly i symbols stand delivered.
        if i < k:
            return w[i]
        return 1 if (i - k) % r == 0 else 0

    def start(m: int) -> UniState:
        return UniState(unrank(constraint, k, m), 0, DirectionState.UNDECIDED, ())

    def emit(state: UniState) -> int:
        w, i, phase, stack = state
        if i == n - 1:
            return q - 1 if phase is DirectionState.POSITIVE else 0
        if phase is DirectionState.UNDECIDED:
            return clean_symbol(w, i)
        if phase is DirectionState.NEGATIVE:
            return _automaton_next(w, stack, q - 1, 0)
        return _automaton_next(w, stack, 0, q - 1)

    def feed(state: UniState, y: int) -> UniState:
        w, i, phase, stack = state
        if phase is DirectionState.UNDECIDED:
            x = emit(state)
            if y != x:
                phase = DirectionState.POSITIVE if y > x else DirectionState.NEGATIVE
        return UniState(w, i + 1, phase, _push(stack, y, **conventions[phase]))

    def decode(received: tuple[int, ...]) -> int:
        flag = received[-1]
        body = received[: n - 1]
        if flag == q - 1:
            stack = rubber_stack_parse(body, **up)
        elif flag == 1:
            stack = list(body)
        else:
            # flag 0 is the clean and committed-down announcement; other
            # values are unreachable and fall back to the same parse
            stack = rubber_stack_parse(body, **down)
        return _decode_word(constraint, stack[:k], message_count)

    def sender_key(state: UniState, direction: DirectionState) -> Optional[UniState]:
        if state.phase is DirectionState.UNDECIDED or direction is not DirectionState.UNDECIDED:
            return state
        return None

    name = f"unidirectional_rubber(q={q},r={r},n={n},t={t})"
    return Strategy(name, message_count, n, Sender(start, feed, emit, decode, sender_key), decode)


def identity_strategy(q: int, n: int) -> Strategy:
    """Non-adaptive baseline: send the message digits, read them back.

    M = q^n leaves no redundancy, so any corruptible codeword yields a
    decoding collision; the verifier uses this as its negative control.

    Sender state: (digits, position), the digits computed once per
    message.  No memo key.
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
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
