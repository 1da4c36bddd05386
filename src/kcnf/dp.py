"""Exact thresholds of the calculus, witness traces, and tables.

For each clause width k there is a least cap T(k) at which the calculus can
derive an unsatisfiable formula whose variables all stay within T(k)
occurrences; below it nothing unsatisfiable is derivable. f2(k) = T(k) - 1
is the largest cap that is still out of reach.

A derivable intermediate is summarized as a piece (w, m, r): sub-width w,
|F'| = m, and r the largest per-step occurrence requirement anywhere in its
derivation. Rules act on summaries:

  chain      (w, 2^w, 2^w) for every w < k (axiom has r = 0)
  compose    left (w1, m1, r1), right (w2, m2, r2), w1 <= w2 < k, d = k - w2:
             (w1 + d, (2^d - 1) m1, max(r1, r2, (2^d - 1) m1 + m2))
  finish     equal widths w1 = w2: requirement max(r1, r2, (2^d - 1) m1 + m2)
  split      literal mode only, w < k - 1: (w + 1, 2m, max(r, 2m)); its
             finish at w = k - 1 costs max(r, 2m), as the d = 1 self-compose
             of the piece does, and both fixpoints take that compose

T(k) is the least finish requirement. f2_value finds it by a bracketed
search over the cap s. Under a fixed s only the smallest size per width
matters, since a step's output size and its cost both grow with each
operand's size, so one check is a least fixpoint over the k widths: O(k^2)
a pass, a few passes. An infeasible check yields the least cost of a step
it rejected, a lower bound on T(k); a feasible one yields the requirement
of the derivation it found, an upper bound. The bracket closes on T(k)
after a few checks. The first probe is one below the closed form
staircase_threshold(k), which equals T(k) for every restricted k from 3
to 160 and at 256 (observed, not proven). There the check at T(k) - 1
rejects a step of cost exactly T(k), and the check at T(k) finishes: two
checks. Where the form is off (k = 2, and literal mode, whose T(k) is at
most the restricted one) the bracket still closes on T(k), only later.

feasible builds its witness traces from the frontier fixpoint, which finds
T(k) in one uniform-cost expansion of the pieces instead. Per width only
Pareto-optimal (m, r) pairs matter, and across widths a piece dominates any
piece that is narrower with no smaller size and requirement: a wider right
partner means a smaller multiplier, a wider left partner reaches further
at equal cost, and for a finish the wider piece needs one extra d=1 hop
whose cost (2^(k-w) - 2) m is below the narrow finish's (2^(k-w) - 1) m +
m2. The frontier therefore maintains one global dominance frontier. Its
witnesses are what the traces have always been, so it stays for them, and
as the cross-check of the search. feasible runs the search first and hands
T(k) to the frontier as a bound, so the frontier pushes no candidate past
T(k)'s heap key class. The bound sits at the edge of that class, not at
T(k) + 1, which keeps the expansion, and so the trace, what it is without
a bound. In literal mode the frontier can miss T(k) (see
_frontier_threshold); feasible then falls back to the search's derivation.

Both fixpoints hand their witness back as the same thing, the finishing
piece of width k, which links to the pieces it was derived from, and one
emitter (_trace_from_piece) writes any such piece as a trace.

The fixed-cap closure itself survives as oracle_f2: an exhaustive BFS over
(width, size, chain-flag) states for one s at a time, feasible only for
small k, sharing no code with either fixpoint.
"""

from __future__ import annotations

import bisect
import heapq
from decimal import Context, Decimal
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .calculus import (
    DerivTrace,
    OP_AXIOM,
    OP_COMPOSE,
    OP_SPLIT,
    TraceNode,
    annotate_trace,
    axiom,
    compose,
    split,
)
from .constructions import DEFAULT_CLAUSE_CAP, guide_columns
from .formula import Formula, VarAllocator, occurrence_census


class MaterializeError(ValueError):
    """A trace whose expansion would be wrong or too large to build."""


CHAIN = OP_AXIOM


class _Piece:
    """A derivation summary and its last step; identity-hashed so
    provenance links stay cheap. A finishing piece has width k and size 0,
    as annotate_trace gives a finished node. how is the last step in the
    trace ops: (CHAIN,) for the chain of the piece's width, AXIOM and one
    SPLIT per unit (the axiom is the chain of width 0), (OP_COMPOSE, a, b)
    or, in literal mode, (OP_SPLIT, a) over operand pieces a and b."""

    __slots__ = ("width", "size", "req", "how")

    def __init__(self, width: int, size: int, req: int, how: Tuple):
        self.width = width
        self.size = size
        self.req = req
        self.how = how


def _frontier_threshold(k: int, literal: bool, bound: int) -> Optional[_Piece]:
    """Uniform-cost expansion of the piece space; returns the finishing
    piece, of width k and req = T(k), whose how is the last step:
    (OP_COMPOSE, a, b) or (CHAIN,) for the split chain. A literal split
    never finishes: at width k - 1 the piece's self-compose costs the same
    and is tried first, and best moves only on a strictly smaller cost.

    A composite's requirement is at least either operand's, so expanding
    pieces in increasing requirement order is monotone: once every queued
    piece needs at least as much as the best finish found, that finish is
    optimal. Only pieces with requirement below T(k) are ever expanded.

    Heap entries are single ints, (key << 28) | seq, where key keeps the
    bit length and top 53 bits of the requirement. Key order refines to
    requirement order except within a key tie, where push order decides.
    The loop ends only once the top key is past the key of best - 1, so a
    tie class is always drained before the answer is declared. A tie
    inversion is not harmless, though: the running minimum per width and
    the requirement of a candidate built on it both assume that an earlier
    settle never needs more. Where requirements pass 53 bits that fails,
    and in literal mode the result can miss T(k) (k = 70, 71, 73, ...) or
    carry a witness that needs more than T(k) (k = 63, 65, 66, 67, 69).
    Exact keys would settle ties in another order and change the restricted
    witnesses from k = 105 on, so the keys stay and feasible checks the
    witness against the search instead.

    bound is T(k) from the search, or 2^k for the unbounded run. best
    starts at the first integer whose key is above key(bound), or at the
    split chain's 2^k where that is lower, so no candidate past T(k)'s key
    class is pushed. Such a candidate can neither settle before the
    unbounded run's finish at T(k) nor displace or suppress one below the
    edge, so the bounded run takes the same steps and returns the same
    witness. The edge is not T(k) + 1: inside a key tie the unbounded run
    settles pieces up to the end of T(k)'s class before it finds its
    finish, and those can shape the witness. Returns None when no finish
    registers under the bound.

    Entry payloads live in a list indexed by seq, which doubles as the
    liveness test: a staircase displacement blanks the slot, and the stale
    heap int is skipped on pop or, after a settle, swept out wholesale when
    dead entries outnumber live ones. Provenance rides on the payload,
    (width, size, req, how), so a settle builds its piece from the payload
    alone; a staircase entry is (size, req, seq).

    Candidates are also suppressed when a pending piece at the counterpart
    operand's width promises a strictly smaller requirement: that promise
    settles first and its expansion regenerates a candidate at least as
    good, so pushing now is pure churn.

    Each trick was taken out alone and timed against the rest (k = 128,
    bound T(k), CPU-second medians of 14 interleaved runs, 2 vCPU, Python
    3.11.7; 0.73 s with all of them). The earlier form of this loop, with
    parallel size, requirement, step and seq lists per width, three tests
    per right-operand entry and the finish inside the d loop, took 0.85 s.
    Size, requirement and seq lists in place of the tuple staircase, all
    else as here, ran as fast (median time ratio 0.99 over 14 more pairs),
    so the one list stays. Without the promise the witnesses change, the
    pushes go from 123,129 to 218,154, and the run takes 1.04 s. (key,
    seq) tuples in place of the packed ints took 0.78 s, no dead-entry
    sweep 0.85 s, and max() in place of the inline `if r < req` in the
    operand loops 0.87 s. A first test of push against the staircase's
    last entry, which the bisect tests cover, won 10 of 14 pairs at k =
    62, 79, 95 together and 6 of 14 at k = 128, so it is gone. by_size,
    the settled pieces by size, orders the right-operand pushes, which
    decides inside a key tie, and stops that scan at the first step whose
    requirement would pass best - 1 or what the settling piece's own
    staircase still promises. A width-order scan took 0.75 s and gave the
    same traces (restricted k <= 160, literal k <= 90), but the two orders
    differ at some settle in 70 of 270 runs checked, so the traces are not
    known to agree for every k.
    """
    pow2 = [1 << i for i in range(k + 1)]
    factor = [p - 1 for p in pow2]
    none = pow2[k]                      # no piece: every settled size is below
    best = none                         # the pure split chain
    best_how: Optional[Tuple] = (CHAIN,)

    def keyf(x: int) -> int:
        bl = x.bit_length()
        return (bl << 53) | (x >> (bl - 53) if bl > 53 else x << (53 - bl))

    sh = max(0, bound.bit_length() - 53)
    edge = ((bound >> sh) + 1) << sh
    if edge < best:
        best, best_how = edge, None
    best_key = keyf(best - 1)
    heap: List[int] = []
    # seq -> (width, size, req, how), None once displaced or settled
    live: List[Optional[Tuple[int, int, int, Tuple]]] = []
    live_n = 0
    # per width, the smallest settled size so far; pieces settle in req
    # order, so an earlier settle never loses on requirement and the
    # running minimum is the only piece a later pairing needs
    min_size = [none] * k
    min_piece: List[Optional[_Piece]] = [None] * k
    # settled (size, width) sorted by size, so the right-operand scan can
    # stop as soon as the step cost clears the bound
    by_size: List[Tuple[int, int]] = []
    # per width, the pending-candidate Pareto staircase of (size, req, seq):
    # sizes ascending, requirements strictly descending; a candidate no
    # better than a pending or settled one never enters the heap
    stair: List[List[Tuple[int, int, int]]] = [[] for _ in range(k)]

    def push(width: int, size: int, req: int, how: Tuple) -> None:
        nonlocal live_n
        st = stair[width]
        i = bisect.bisect_left(st, (size,))
        if i > 0 and st[i - 1][1] <= req:
            return
        n = len(st)
        if i < n and st[i][0] == size and st[i][1] <= req:
            return
        j = i
        while j < n and st[j][1] >= req:
            j += 1
        for _, _, q in st[i:j]:
            live[q] = None
        live_n -= j - i
        seq = len(live)
        if seq > 0x0FFFFFFF:
            # unreached: needs 2^28 pushes; k = 128 makes 123,129
            raise RuntimeError("push sequence exceeded packing capacity")
        st[i:j] = [(size, req, seq)]
        live.append((width, size, req, how))
        live_n += 1
        heapq.heappush(heap, (keyf(req) << 28) | seq)

    push(0, 1, 0, (CHAIN,))
    for w in range(1, k):
        push(w, pow2[w], pow2[w], (CHAIN,))

    while heap:
        e = heapq.heappop(heap)
        if (e >> 28) > best_key:
            break
        rec = live[e & 0x0FFFFFFF]
        if rec is None:
            continue                    # superseded while queued
        width, size, req, _ = rec
        if req >= best or size + 1 >= best:
            # the staircase entry stays: as an improvement promise it only
            # ever suppressed candidates that are now past best anyway
            continue
        piece = _Piece(*rec)
        ms = min_size[width]
        if ms < none:
            by_size.pop(bisect.bisect_left(by_size, (ms, width)))
        min_size[width] = size
        min_piece[width] = piece
        bisect.insort(by_size, (size, width))
        # a surviving pop is exactly the live staircase entry at its size;
        # it and the pending entries that lost to it leave the staircase
        st = stair[width]
        i = bisect.bisect_left(st, (size,))
        for _, _, q in st[i:]:
            live[q] = None
        live_n -= len(st) - i
        del st[i:]
        own_req = st[-1][1] if st else none
        # as left operand: partner at width k - d. The partner staircase is
        # the improvement promise.
        dfin = k - width
        for d in range(1, dfin):
            partner = min_piece[k - d]
            if partner is None:
                continue
            t = factor[d] * size
            r = t + partner.size
            if r < req:
                r = req
            tgt = width + d
            if r < best and t < min_size[tgt]:
                ps = stair[k - d]
                if not ps or ps[-1][1] >= r:
                    push(tgt, t, r, (OP_COMPOSE, piece, partner))
        # d = dfin pairs the piece with itself and finishes
        r = max(req, size << dfin)
        if r < best:
            best, best_how = r, (OP_COMPOSE, piece, piece)
            best_key = keyf(best - 1)
        # as right operand: settled sources at narrower widths, cheapest
        # size first; d is fixed here. The settling piece is the partner
        # side, the source's staircase the other promise. A push needs
        # t + size below best and within own_req (req < own_req on the
        # staircase), and t grows along by_size, so lim ends the scan; a
        # finish just found can leave best at req, and then nothing fits.
        fd = factor[dfin]
        lim = min(best - 1, own_req) - size if req < best else -1
        for ss, w1 in by_size:
            t = fd * ss
            if t > lim:
                break
            if w1 < width and t < min_size[w1 + dfin]:
                r = t + size
                push(w1 + dfin, t, r if r > req else req,
                     (OP_COMPOSE, min_piece[w1], piece))
        # at width k - 1 the d = 1 self-compose above finishes at this cost;
        # 2 size fits under best and own_req exactly when size <= lim
        if literal and width < k - 1 and size <= lim \
                and 2 * size < min_size[width + 1]:
            push(width + 1, 2 * size, max(req, 2 * size), (OP_SPLIT, piece))
        # only a settle pushes, so only a settle can leave the heap mostly
        # dead; heap ints are distinct, so the sweep keeps the pop order
        if len(heap) > 2 * live_n + 4096:
            heap = [e for e in heap if live[e & 0x0FFFFFFF] is not None]
            heapq.heapify(heap)
    return None if best_how is None else _Piece(k, 0, best, best_how)


def _capped_fixpoint(k: int, s: int, size: List[int], req: List[int],
                     known: int, literal: bool,
                     piece: Optional[List[Optional[_Piece]]] = None) -> int:
    """One fixed-cap check: the least fixpoint of the smallest size per width.

    size[w] is the smallest piece at width w found so far and req[w] the
    requirement of the derivation that reached it. Both are updated in
    place and start from _start's chains or from the fixpoint of a check
    at a lower cap. A chain above s needs no test of its own: every step
    that touches it costs more than its size, so it is refused like any
    step over the cap. Keeping only the smallest size per width loses
    nothing, because a step's output size and its cost both grow with each
    operand's size. Given a piece list (the chains, then a slot for the
    finish), the derivations are kept there as well, and piece[k] gets the
    finishing piece (width k, size 0), a compose: a literal split from
    width k - 1 costs what the piece's d = 1 self-compose does, which the
    check takes first, so the split is a step only below k - 1.

    The list stays optional because only the witness needs it. Tracking
    the pieces on every check of f2_table(1, 160) took 1.36-2.18 CPU
    seconds, and keeping the pieces as the only table (size and req read
    from them) 1.34-1.87 s, against 0.93-1.22 s without (6 interleaved
    runs each, 2 vCPU, Python 3.11.7, a shared host).

    Returns r <= s when a finish fits within s, the least requirement among
    the finishing derivations found; T(k) <= r. The check stops early at a
    finish with r <= known, a lower bound on T(k). Returns c > s otherwise,
    the least cost of a rejected step that would finish or shrink a piece
    at the fixpoint; the chain finish, at 2^k, is always such a step. Under
    any cap below c the same steps are taken and change the same sizes, so
    the fixpoint is the same and T(k) >= c.
    """
    factor = [(1 << d) - 1 for d in range(k + 1)]
    best = s + 1
    changed = True
    while changed:
        changed = False
        least = 1 << k
        for w1 in range(k):
            m1 = size[w1]
            r1 = req[w1]
            # w1 as left operand of a compose with the piece at width k - d
            for d in range(1, k - w1 + 1):
                t = factor[d] * m1
                w2 = k - d
                c = t + size[w2]
                tgt = w1 + d
                if c > s:
                    if c < least and (tgt == k or t < size[tgt]):
                        least = c
                    continue
                r = max(r1, req[w2], c)
                if tgt == k:
                    if r < best:
                        best = r
                        if piece:
                            piece[k] = _Piece(k, 0, r, (OP_COMPOSE, piece[w1],
                                                        piece[w2]))
                        if r <= known:
                            return r
                elif t < size[tgt]:
                    size[tgt], req[tgt] = t, r
                    changed = True
                    if piece:
                        piece[tgt] = _Piece(tgt, t, r, (OP_COMPOSE, piece[w1],
                                                        piece[w2]))
            # at width k - 1 the d = 1 self-compose above finishes at this cost
            if literal and w1 < k - 1:
                c = 2 * m1
                tgt = w1 + 1
                if c > s:
                    if c < least and c < size[tgt]:
                        least = c
                elif c < size[tgt]:
                    r = max(r1, c)
                    size[tgt], req[tgt] = c, r
                    changed = True
                    if piece:
                        piece[tgt] = _Piece(tgt, c, r, (OP_SPLIT, piece[w1]))
    return best if best <= s else least


def _start(k: int) -> Tuple[List[int], List[int]]:
    """Sizes and requirements before any step: the chain (w, 2^w, 2^w) at
    every width w < k, the axiom (size 1, requirement 0) at width 0."""
    size = [1 << w for w in range(k)]
    return size, [0] + size[1:]


def staircase_threshold(k: int) -> int:
    """T(k) in closed form, from staircases of uniform guards; observed, not
    proven, and only the search's first probe.

    L_d(w) = (2^d - 1)^floor(w/d) 2^(w mod d) is the cheapest size at width
    w built from d-blocks, and c_d(k), the cheapest step with a guard width
    e that would reach width k - d + 1, is the least over e = d..k - d + 1
    of (2^e - 1) L_d(k - d + 1 - e) + L_d(k - e). The form is the largest
    c_d(k). d is scanned to the bit length of k, not to (k + 1) / 2: the
    largest term lies at d = 5 at k = 160 and at 6 at k = 256, and the
    tests check the shorter scan against the full one there.
    """
    best = 0
    for d in range(1, min((k + 1) // 2, k.bit_length()) + 1):
        g = (1 << d) - 1
        stair = [1 << w for w in range(d)]
        for w in range(d, k - d + 1):
            stair.append(g * stair[w - d])
        best = max(best, min(((1 << e) - 1) * stair[k - d + 1 - e]
                             + stair[k - e] for e in range(d, k - d + 2)))
    return best


def _threshold_search(k: int, literal: bool, probe: int) -> int:
    """T(k) by a bracketed search over fixed-cap checks, probe the first cap.

    The bracket [lo, hi] holds T(k); the split chain puts hi at 2^k. Each
    check probes a cap lo <= s < hi and either raises lo past s or lowers
    hi to at most s, so the bracket strictly narrows and closes at T(k),
    whatever the first probe. After an infeasible check the next probe is
    the new lo itself, which is very often T(k) exactly; after a feasible
    one, or for a first probe outside [lo, hi), it is the midpoint. A check
    starts from the fixpoint of the last infeasible one: that was taken
    under a lower cap, so each of its entries is still a derivable piece
    or a chain.

    Each trick was taken out alone and timed against the rest
    (f2_table(1, 160), then 320 checks, now 319; CPU-second medians of 14
    interleaved runs, 2 vCPU, Python 3.11.7, a shared host; 0.98 s with
    both, interquartile 0.96-1.03 s). Each check from the start in place
    of the last infeasible fixpoint took 1.12 s, and no early stop at a
    finish within lo (known = 0) 1.40 s, each slower in 14 of 14 pairs.
    """
    lo, hi = 1, 1 << k
    base = _start(k)
    while lo < hi:
        if not lo <= probe < hi:
            probe = (lo + hi) // 2
        size, req = list(base[0]), list(base[1])
        bound = _capped_fixpoint(k, probe, size, req, lo, literal)
        if bound <= probe:
            hi = bound
        else:
            lo = probe = bound
            base = size, req
    return lo


def _search_witness(k: int, t: int, literal: bool) -> _Piece:
    """A finishing piece needing exactly t = T(k), from one check at cap t."""
    size, req = _start(k)
    piece: List[Optional[_Piece]] = [
        _Piece(w, m, r, (CHAIN,)) for w, (m, r) in enumerate(zip(size, req))]
    piece.append(None)
    assert _capped_fixpoint(k, t, size, req, t, literal, piece) == t
    return piece[k]


def f2_value(k: int, literal: bool = False) -> int:
    """Largest cap s at which the calculus cannot finish at width k.

    Found by the bracketed search over fixed-cap checks, without the
    frontier fixpoint, its first probe one below staircase_threshold(k);
    feasible still takes its witness traces from the frontier.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _threshold_search(k, literal, staircase_threshold(k) - 1) - 1


# ---------------------------------------------------------------------------
# witness traces


def feasible(k: int, s: int, literal: bool = False) -> Optional[DerivTrace]:
    """A finishing trace whose every step fits within s, or None.

    The returned trace is the threshold witness, so it is the same for
    every s at or above the threshold (and annotates to required_s =
    f2(k) + 1), except that a generous s >= 2^k short-circuits to the
    plain split chain. The search's first probe is one below the lower of
    s and the closed form: for feasible(k, f2(k) + 1, literal=True) s is
    the better one, since the closed form is the restricted T(k) and the
    literal one is at most that. The witness is then the finishing piece of the
    frontier bounded by T(k) (see _frontier_threshold) if its trace
    annotates to T(k), else the finishing piece of one search check at
    cap T(k).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if s < 1:
        raise ValueError("s must be positive")
    if s >= 2 ** k:
        return _trace_from_piece(_Piece(k, 0, 1 << k, (CHAIN,)))
    t = _threshold_search(k, literal, min(s, staircase_threshold(k)) - 1)
    if s < t:
        return None
    root = _frontier_threshold(k, literal, bound=t)
    if root is not None:
        trace = _trace_from_piece(root)
        if annotate_trace(trace, k, literal).required_s == t:
            return trace
    return _trace_from_piece(_search_witness(k, t, literal))


def _trace_from_piece(root: _Piece) -> DerivTrace:
    """The trace of root's derivation, each piece once, operands first.

    The post-order is iterative: piece DAGs can be deeper than the default
    recursion limit at large k. A chain piece of width w expands to AXIOM
    and w SPLITs; every other piece is one node, its how's op over the ids
    of its operand pieces.
    """
    nodes: List[TraceNode] = []
    ids: Dict[_Piece, int] = {}
    stack: List[Tuple[_Piece, bool]] = [(root, False)]
    while stack:
        piece, ready = stack.pop()
        if piece in ids:
            continue
        op, *deps = piece.how
        if not ready:
            stack.append((piece, True))
            stack.extend((p, False) for p in reversed(deps))
            continue
        if op == CHAIN:
            nodes.append(TraceNode(OP_AXIOM, ()))
            for _ in range(piece.width):
                nodes.append(TraceNode(OP_SPLIT, (len(nodes) - 1,)))
        else:
            nodes.append(TraceNode(op, tuple(ids[p] for p in deps)))
        ids[piece] = len(nodes) - 1
    return DerivTrace(tuple(nodes), len(nodes) - 1)


# ---------------------------------------------------------------------------
# materialization


def materialize(trace: DerivTrace, k: int, s: int,
                literal: bool = False) -> Formula:
    """Execute a trace into an actual formula, checking it against the plan.

    Every reference expands to its own fresh-variable copy, which is what
    the compose rule's occurrence accounting assumes. After each step the
    realized |F'| and clause count must equal the annotated ones; at the
    end the formula must be width-uniform at k with no variable above s
    occurrences.
    """
    ann = annotate_trace(trace, k, literal)
    if ann.required_s > s:
        raise MaterializeError(
            f"trace needs s >= {ann.required_s}, asked to build at s = {s}")
    final_total = ann.nodes[trace.final].clauses
    if final_total > DEFAULT_CLAUSE_CAP:
        raise MaterializeError(f"expansion would produce {final_total} "
                               f"clauses (cap {DEFAULT_CLAUSE_CAP})")
    alloc = VarAllocator()
    # post-order over references, left operand first, so that fresh ids
    # are drawn in one fixed order; iterative, since a valid trace can be
    # far deeper than the recursion limit
    stack: List[Tuple[int, bool]] = [(trace.final, False)]
    built = []
    while stack:
        i, ready = stack.pop()
        node = trace.nodes[i]
        if not ready:
            stack.append((i, True))
            stack.extend((a, False) for a in reversed(node.args))
            continue
        if node.op == OP_AXIOM:
            df = axiom(k)
        elif node.op == OP_SPLIT:
            df = split(built.pop(), s, literal, alloc)
        else:
            right = built.pop()
            df = compose(built.pop(), right, s, alloc=alloc)
        info = ann.nodes[i]
        if df.size != info.size:
            raise MaterializeError(
                f"node {i} realized |F'| = {df.size}, annotation says "
                f"{info.size}")
        realized = df.size + len(df.complete)
        if realized != info.clauses:
            raise MaterializeError(
                f"node {i} realized {realized} clauses, annotation says "
                f"{info.clauses}")
        built.append(df)
    # annotate_trace put the final node at width k, so its |F'| is 0
    formula = built.pop().formula
    census = occurrence_census(formula)
    if census.max_occurrence > s:
        raise MaterializeError(
            f"materialized formula has a variable in {census.max_occurrence} "
            f"clauses, cap is {s}")
    return formula


# ---------------------------------------------------------------------------
# fixed-cap oracle (independent of the frontier fixpoint)


def _oracle_feasible(k: int, s: int, literal: bool) -> bool:
    """Exhaustive closure over (width, |F'|, chain-flag) states at cap s."""
    states: Set[Tuple[int, int, bool]] = {(0, 1, True)}
    while True:
        pool = sorted(states)
        added = False
        for (w1, m1, sp1) in pool:
            if (sp1 or literal) and 2 * m1 <= s:
                if w1 == k - 1:
                    return True
                st = (w1 + 1, 2 * m1, sp1)
                if st not in states:
                    states.add(st)
                    added = True
            for (w2, m2, _sp2) in pool:
                if w1 > w2 or w2 > k - 1:
                    continue
                d = k - w2
                t = (2 ** d - 1) * m1
                if t + m2 > s:
                    continue
                if w1 == w2:
                    return True
                st = (w1 + d, t, False)
                if st not in states:
                    states.add(st)
                    added = True
        if not added:
            return False


def oracle_f2(k: int, literal: bool = False) -> int:
    """f2 recomputed the slow way: raise s until the closure succeeds."""
    if k < 1:
        raise ValueError("k must be positive")
    s = 1
    while not _oracle_feasible(k, s, literal):
        s += 1
    return s - 1


# ---------------------------------------------------------------------------
# tables


F2_CSV_HEADER = "k,f2,f2_norm,line_a,line_b,line_d"


def f2_norm_string(f2: int, k: int) -> str:
    """Six significant digits of f2 * k / 2^k without float overflow."""
    q = Context(prec=6).divide(Decimal(f2 * k), Decimal(2 ** k))
    return str(q)


def f2_csv_row(k: int, f2: int) -> str:
    return ",".join([str(k), str(f2), f2_norm_string(f2, k),
                     *guide_columns(k)])


def f2_table(k_from: int, k_to: int,
             jobs: int = 1) -> Iterator[Tuple[int, int]]:
    """Stream (k, f2) for k_from..k_to; jobs > 1 maps single k across
    processes."""
    if k_from < 1 or k_to < k_from:
        raise ValueError("need 1 <= k_from <= k_to")
    ks = range(k_from, k_to + 1)
    workers = min(jobs, len(ks))
    if workers <= 1:
        yield from zip(ks, map(f2_value, ks))
        return
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        yield from zip(ks, pool.imap(f2_value, ks))
