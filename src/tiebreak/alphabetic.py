"""Optimal ordered-leaf binary trees: solver, oracles, and tree utilities.

The solver is the classic two-phase method: phase 1 repeatedly combines the
minimum-weight combinable pair of sequence nodes (two nodes are combinable
when only internal nodes sit between them), phase 2 rebuilds an order-
preserving tree from the leaf depths phase 1 produced. All minimum finding
is done through explicit pairwise comparisons so that every branch the
solver takes lands in a decision trace, and every exact tie is resolved by a
shadow direction rather than by an ad-hoc rule.

Phase 1 is the priority-queue form of Hu-Tucker. A block is the run of
internal nodes between two surviving leaves, plus those leaves; its nodes
are pairwise combinable, and each block keeps its nodes in a min-heap. A
second heap orders the blocks by their best pair, which is their two
smallest nodes because the (weight, shadow) order is compatible with
addition. Consuming a leaf merges the blocks on both sides of it, the
smaller heap into the larger. Each combine step costs O(log n) comparisons
plus the merging, which moves each node O(log n) times, so phase 1 makes
O(n log n) comparisons in practice and O(n log^2 n) at worst, where
comparing every combinable pair in every round is up to cubic. The shadow
makes the order on candidate pairs strict and total, so the minimum, and
with it the tree, does not depend on the order in which the heaps meet the
candidates.

A comparison's functional is the later operand's leaves with coefficient +1
and the earlier operand's with -1. Each node carries its leaves as two
signed-item tuples sorted by leaf, ((i, 1), ...) and ((i, -1), ...), built
once per node, so a comparison's items are one concatenation of presorted
runs, sorted only when the operands' leaves interleave. `trace.recorder`
decides each comparison from those items and the scaled difference, and the
items become the record's functional unchanged.

Two independent oracles ship alongside. The interval dynamic program finds
the optimal cost in O(n^2): each interval searches only the splits between
the best splits of its two one-shorter subintervals, the Knuth-Yao window
(Knuth, Acta Informatica 1 (1971); Yao, STOC 1980); it fills one
triangular table row by row, from the bottom. The exhaustive oracle,
for n <= 12, keeps for each proper sub-interval the costs an ordered tree
over it can have, with the number of trees that have each, and takes the
minimum, with its count, over the full interval's trees alone. It never
minimizes over a sub-interval, so it relies on neither the optimal
substructure nor the window that the dynamic program rests on. It prunes
by depth instead: the weight-balanced split tree's cost bounds the optimum
from above, and a sub-interval's subtree sits at depth 1 or more (2 or more
when it holds neither end leaf), so a cost that only a dearer tree could
give the sub-interval is dropped. Each table is sorted by cost, so every
loop stops at the bound. At n = 11 (2-vCPU VM, Python 3.11.7; best of 40
calls, five vectors per family) it takes 0.15 ms for equal weights,
0.16-0.24 ms for three equal blocks and pair-sum ties, 0.17-0.31 ms for
palindromes, 0.19-0.48 ms for zero-sprinkled and 0.32-0.71 ms for random
vectors; the same tables unpruned took 0.20 ms, 0.26-1.22 ms, 1.12-1.66
ms, 1.79-2.25 ms and 1.79-2.56 ms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterator, Sequence, Union

from .core import RationalLike, _require_int, clear_denominators, require_nonnegative_weights
from .errors import CapacityError, DomainError, StructureError
from .perturb import NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow
from .trace import DecisionTrace, RecordSink, recorder

#: A tree is a 1-based leaf index or a (left, right) pair of trees.
Tree = Union[int, tuple["Tree", "Tree"]]

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
POLICIES = (LEFTMOST, RIGHTMOST)

#: Which shadow orientation realizes which tie policy. Configuration, not a
#: law of nature: the harness re-derives this binding empirically against a
#: direct positional implementation of the policies.
POLICY_ORIENTATION = {LEFTMOST: NEGATIVE, RIGHTMOST: POSITIVE}

ENUMERATION_CAP = 12


# ---------------------------------------------------------------------------
# Tree values


def _leaf_depths(tree: Tree) -> dict[int, int]:
    depths: dict[int, int] = {}
    stack: list[tuple[Tree, int]] = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, int):
            if node in depths:
                raise StructureError(f"leaf {node} appears twice")
            depths[node] = d
        else:
            left, right = node
            stack.append((left, d + 1))
            stack.append((right, d + 1))
    return depths


def tree_depths(tree: Tree) -> tuple[int, ...]:
    """Depth of each leaf, indexed by leaf number (entry 0 is leaf 1)."""
    depths = _leaf_depths(tree)
    n = len(depths)
    if set(depths) != set(range(1, n + 1)):
        raise StructureError(f"leaves must be 1..{n}, got {sorted(depths)}")
    return tuple(depths[i] for i in range(1, n + 1))


def tree_cost(tree: Tree, w: Sequence[RationalLike]) -> Fraction:
    """Sum of weight times leaf depth, computed in integers over one common scale."""
    depths = tree_depths(tree)
    if len(depths) != len(w):
        raise StructureError(f"tree has {len(depths)} leaves but instance has {len(w)}")
    scale, scaled = clear_denominators(w)
    return Fraction(sum(map(mul, scaled, depths)), scale)


def format_tree(tree: Tree) -> str:
    """Render as leaf names and parenthesized pairs: ((b1 b2) b3).

    Walks an explicit stack, so a tree of any depth renders.
    """
    out: list[str] = []
    # Subtrees still to render, and the texts that go between them.
    stack: list[Tree | str] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            out.append("(")
            stack += (")", node[1], " ", node[0])
        else:
            out.append(node if isinstance(node, str) else f"b{node}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Phase 1: combine minimum-weight pairs under an instrumented comparator


class _SeqNode:
    """A sequence node: its leaves as sorted signed items; `first` and `last`
    are the lowest and the highest."""

    __slots__ = ("weight", "first", "last", "plus", "minus", "shape", "is_leaf")

    def __init__(self, weight, plus: tuple, minus: tuple, shape: Tree, is_leaf: bool):
        self.weight = weight
        self.first = plus[0][0]
        self.last = plus[-1][0]
        self.plus = plus
        self.minus = minus
        self.shape = shape
        self.is_leaf = is_leaf


class _Block:
    """The internal nodes between two consecutive surviving leaves, plus those leaves.

    Every two nodes of a block are combinable, and every combinable pair lies
    in one block. `left` and `right` are the end leaves (None past the first
    or last surviving leaf). `heap` is a binary min-heap once it holds three
    or more nodes; two nodes are the block's only pair and stay unordered.
    `lo` and `hi` are the block's two smallest nodes in sequence order and
    `total` their weight sum. `rank` orders blocks left to right and `slot`
    is the block's index in the heap of blocks.
    """

    __slots__ = ("heap", "left", "right", "prev", "next", "rank", "slot", "lo", "hi", "total")

    def __init__(self, rank: int, left: _SeqNode, right: _SeqNode, total):
        self.heap = [left, right]
        self.left = self.lo = left
        self.right = self.hi = right
        self.prev = self.next = None
        self.rank = self.slot = rank
        self.total = total


# Binary heap primitives over a `less(a, b)` predicate. Every call of `less`
# is a recorded comparison. With `track`, each item's `slot` follows its
# index so it can be removed from the middle of the heap.


def _sift_up(heap: list, i: int, top: int, less: Callable, track: bool) -> int:
    """Move heap[i] up while it beats its parent, stopping at index `top`.

    Returns the item's final index.
    """
    item = heap[i]
    while i > top:
        parent = (i - 1) >> 1
        above = heap[parent]
        if not less(item, above):
            break
        heap[i] = above
        if track:
            above.slot = i
        i = parent
    heap[i] = item
    if track:
        item.slot = i
    return i


def _sift_down(heap: list, i: int, less: Callable, track: bool) -> None:
    """Bottom-up sift: follow the smaller children to a leaf, then rise.

    One comparison per level on the way down, which suits items that sink
    far, as merged nodes and updated block keys do.
    """
    item = heap[i]
    start = i
    size = len(heap)
    child = 2 * i + 1
    while child < size:
        if child + 1 < size and less(heap[child + 1], heap[child]):
            child += 1
        below = heap[child]
        heap[i] = below
        if track:
            below.slot = i
        i = child
        child = 2 * i + 1
    heap[i] = item
    _sift_up(heap, i, start, less, track)


def _remove_at(heap: list, i: int, less: Callable, track: bool) -> None:
    """Remove heap[i] for real; the last item takes its place and re-sifts."""
    last = heap.pop()
    if i == len(heap):
        return
    heap[i] = last
    if not track and len(heap) < 3:
        return  # two nodes of a block stay unordered
    # `last` came from this heap, so it cannot rise above the root.
    if _sift_up(heap, i, 2, less, track) == i:
        _sift_down(heap, i, less, track)


def _push_node(heap: list, node: _SeqNode, less: Callable) -> None:
    """Push onto a node heap, ordering a two-node heap's pair first."""
    if len(heap) == 2 and less(heap[1], heap[0]):
        heap.reverse()
    heap.append(node)
    if len(heap) > 2:
        _sift_up(heap, len(heap) - 1, 0, less, False)


def _absorb(heap: list, block: _Block, leaf: _SeqNode, less: Callable) -> list:
    """Union of `heap` and `block`'s nodes but `leaf`, smaller heap into larger."""
    other = block.heap
    _remove_at(other, other.index(leaf), less, False)
    if len(heap) < len(other):
        heap, other = other, heap
    for node in other:
        _push_node(heap, node, less)
    return heap


def _node_items(later: _SeqNode, earlier: _SeqNode):
    """Signed items of later minus earlier (earlier.first < later.first), sorted.

    Two nodes never share a leaf, so when earlier's leaves all lie below
    later's, the joined item tuples are already sorted. All but about 3% of
    comparisons skip the sort this way (n = 8 to 40, tie and generic
    families), here and in `_pair_items`.
    """
    if earlier.last < later.first:
        return earlier.minus + later.plus
    return sorted(later.plus + earlier.minus)


def _pair_items(later: _Block, earlier: _Block):
    """Items of later's best pair minus earlier's; earlier.rank < later.rank."""
    a, b, c, d = earlier.lo, earlier.hi, later.lo, later.hi
    # The pairs can share one node: the leaf between adjacent blocks, which
    # is the earlier pair's right and the later pair's left member. Its +1
    # and -1 cancel, so it drops out.
    if c is b:
        return _node_items(d, a)
    if a.last < b.first and b.last < c.first and c.last < d.first:
        return a.minus + b.minus + c.plus + d.plus
    return sorted(c.plus + d.plus + a.minus + b.minus)


def phase1_depths(
    entry_weights: Sequence[int], decide: Callable[[list[tuple[int, int]], int], int]
) -> tuple[int, ...]:
    """Run the combine loop with the caller's decision rule; returns leaf depths.

    `entry_weights` are the leaves' weights as ints. `decide(items, diff)`
    must return -1 when the later (minuend) operand is the smaller and +1
    when the earlier (subtrahend) one is; 0 is not an answer. `items` are
    the functional's signed items, sorted by index, and `diff` is the later
    operand's weight minus the earlier's. Operands are two nodes or two
    blocks' best pairs, and the earlier one in left-to-right order is
    always the subtrahend, which is what makes the emitted functionals
    start with a -1 coefficient. The solvers below decide through
    `trace.recorder`; the harness replays decide by checking against a
    recorded trace instead.
    """
    leaves = [
        _SeqNode(wi, ((i, 1),), ((i, -1),), i, True)
        for i, wi in enumerate(entry_weights, start=1)
    ]
    n = len(leaves)
    if n == 1:
        return (0,)

    # Each comparator asks whether its first operand is the smaller: the
    # later operand when the decision is -1, the earlier one otherwise.
    def node_less(a: _SeqNode, b: _SeqNode) -> bool:
        # The sequence stays ordered by each node's lowest leaf.
        if a.first < b.first:
            return decide(_node_items(b, a), b.weight - a.weight) >= 0
        return decide(_node_items(a, b), a.weight - b.weight) < 0

    def block_less(p: _Block, q: _Block) -> bool:
        if p.rank < q.rank:
            return decide(_pair_items(q, p), q.total - p.total) >= 0
        return decide(_pair_items(p, q), p.total - q.total) < 0

    blocks = [
        _Block(k, a, b, a.weight + b.weight)
        for k, (a, b) in enumerate(zip(leaves, leaves[1:]))
    ]
    for left, right in zip(blocks, blocks[1:]):
        left.next = right
        right.prev = left
    for k in reversed(range(len(blocks) // 2)):
        _sift_down(blocks, k, block_less, True)

    while True:
        # The top block holds the minimum combinable pair: each block's best
        # pair is its two smallest nodes, since (weight, shadow) order is
        # compatible with addition.
        b = blocks[0]
        x, y = b.lo, b.hi
        if not (
            x.first < y.first
            and (x is b.left or not x.is_leaf)
            and (y is b.right or not y.is_leaf)
        ):
            raise StructureError(
                f"phase 1 picked a pair that is not combinable: leaves {x.first} and {y.first}"
            )
        # A consumed leaf joins the blocks on either side of it. Drop the
        # absorbed neighbours from the heap of blocks before any key changes,
        # so that no comparison ever sees a node that is gone.
        absorbed_left = b.prev if x.is_leaf else None
        absorbed_right = b.next if y.is_leaf else None
        for gone in (absorbed_left, absorbed_right):
            if gone is not None:
                _remove_at(blocks, gone.slot, block_less, True)

        if x.last < y.first:
            plus, minus = x.plus + y.plus, x.minus + y.minus
        else:
            plus, minus = tuple(sorted(x.plus + y.plus)), tuple(sorted(x.minus + y.minus))
        merged = _SeqNode(b.total, plus, minus, (x.shape, y.shape), False)
        heap = b.heap
        if len(heap) == 2:
            heap = [merged]
        else:
            # The pair is the root and one of its children. The merged node
            # replaces the root instead of a pop and a push.
            _remove_at(heap, 1 if heap[1] is x or heap[1] is y else 2, node_less, False)
            heap[0] = merged
            if len(heap) > 2:
                _sift_down(heap, 0, node_less, False)
        if x.is_leaf:
            b.left = None
            if absorbed_left is not None:
                heap = _absorb(heap, absorbed_left, x, node_less)
                b.rank, b.left, b.prev = absorbed_left.rank, absorbed_left.left, absorbed_left.prev
                if b.prev is not None:
                    b.prev.next = b
        if y.is_leaf:
            b.right = None
            if absorbed_right is not None:
                heap = _absorb(heap, absorbed_right, y, node_less)
                b.right, b.next = absorbed_right.right, absorbed_right.next
                if b.next is not None:
                    b.next.prev = b
        b.heap = heap
        if len(heap) == 1:
            break

        lo = heap[0]
        hi = heap[1] if len(heap) == 2 or node_less(heap[1], heap[2]) else heap[2]
        if hi.first < lo.first:
            lo, hi = hi, lo
        b.lo, b.hi, b.total = lo, hi, lo.weight + hi.weight
        _sift_down(blocks, 0, block_less, True)

    return tree_depths(merged.shape)


def hu_tucker_phase1(
    w: Sequence[RationalLike],
    s: ShadowVector,
    on_record: RecordSink | None = None,
) -> tuple[tuple[int, ...], DecisionTrace | None]:
    """Combine phase under a shadow direction; returns (leaf depths, trace).

    `trace.recorder` checks w and `s` and decides every comparison: the
    sign of its functional at w, and on an exact tie its sign on `s`. Which
    orientation of `s` realizes which tie policy is measured by the
    harness, not assumed here. When `on_record` is given, records stream to
    it and the returned trace is None.
    """
    scaled, decide, finish = recorder(w, s, on_record)
    return phase1_depths(scaled, decide), finish()


def phase1_explicit_shadow(
    w: Sequence[RationalLike], s: ShadowVector
) -> tuple[tuple[int, ...], DecisionTrace]:
    """Combine phase at the concrete generic point w + s/M, no tie policy.

    t is `s` over its own common denominator and M = 2*sum|t_i| + 1; leaf i
    weighs the int scaled_i * M + t_i, scaled_i being `recorder`'s. Each
    decision goes through `recorder`'s rule on the diff at w alone, and on
    a tie the packed drift f(t) must have the realized sign, or
    StructureError is raised. Emits the same records as `hu_tucker_phase1`
    with the same shadow; a comparison with both parts zero raises
    DomainError (it never happens for dyadic shadows).
    """
    scaled, decide, finish = recorder(w, s)
    t = clear_denominators(s.entries)[1]
    half = sum(map(abs, t))
    m = 2 * half + 1

    def packed_decide(items, packed: int) -> int:
        # Phase 1 coefficients are +-1 on distinct leaves, so |f(t)| <= half
        # and packed + half = diff * M + (f(t) + half), 0 <= f(t) + half < M:
        # the quotient is exactly the diff, and on a tie packed is f(t).
        diff = (packed + half) // m
        realized = decide(items, diff)
        if not diff and (packed > 0) - (packed < 0) != realized:
            raise StructureError("explicit run's drift contradicts the recorded tie sign")
        return realized

    return phase1_depths([x * m + e for x, e in zip(scaled, t)], packed_decide), finish()


# ---------------------------------------------------------------------------
# Phase 2: rebuild an ordered tree from leaf depths


def reconstruct_from_depths(depths: Sequence[int]) -> Tree | None:
    """Build the ordered tree realizing the given leaf depths, or None.

    Left-to-right stack construction: push each leaf, and while the top two
    subtrees sit at the same positive depth, merge them one level up. The
    sequence is realizable exactly when a single depth-0 tree remains.
    Infeasibility is an answer, not an error.
    """
    if not depths:
        raise StructureError("depth sequence must have at least one entry")
    for d in depths:
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise StructureError(f"depths must be nonnegative integers, got {d!r}")
    stack: list[tuple[Tree, int]] = []
    for leaf, d in enumerate(depths, start=1):
        stack.append((leaf, d))
        while len(stack) >= 2 and stack[-1][1] == stack[-2][1] and stack[-1][1] >= 1:
            (right, rd) = stack.pop()
            (left, _) = stack.pop()
            stack.append(((left, right), rd - 1))
    if len(stack) == 1 and stack[0][1] == 0:
        return stack[0][0]
    return None


# ---------------------------------------------------------------------------
# Full solver


def hu_tucker(w: Sequence[RationalLike], policy: str) -> tuple[Tree | None, DecisionTrace]:
    """Solve an instance under a tie policy; returns (tree or None, trace).

    The shadow is the dyadic direction bound to the policy: negative for
    leftmost, positive for rightmost. A None tree means the depth sequence
    from phase 1 was not realizable, which the underlying theory rules out;
    it is reported, never raised.
    """
    if policy not in POLICIES:
        raise DomainError(f"policy must be one of {POLICIES}, got {policy!r}")
    vec = require_nonnegative_weights(w)
    depths, trace = hu_tucker_phase1(vec, dyadic_shadow(len(vec), POLICY_ORIENTATION[policy]))
    return reconstruct_from_depths(depths), trace


# ---------------------------------------------------------------------------
# Oracles


def dp_optimal_cost(w: Sequence[RationalLike]) -> Fraction:
    """Optimal cost by interval dynamic programming, exact, in O(n^2).

    cost(i, j) = W(i, j) + min over splits i <= k < j of cost(i, k) +
    cost(k+1, j), where W(i, j) is the interval's total weight. Interval
    weights are sums of nonnegative weights, so W is monotone and satisfies
    the quadrangle inequality with equality, zero weights included. Then the
    last split attaining the minimum, K(i, j), obeys K(i, j-1) <= K(i, j) <=
    K(i+1, j) (Knuth, Acta Informatica 1 (1971); Yao, STOC 1980), so each
    interval searches only that window, and the windows along one span
    j - i telescope to O(n). Rows fill from the bottom, i descending and j
    ascending, so K(i, j-1) was just found and K(i+1, j) comes from the row
    below. One triangular table holds the costs, column j indexed by split
    k as cost(k+1, j); the row being filled is one more list, indexed by k
    as cost(i, k). Denominators are cleared once so the loop runs on
    machine-or-big ints only.
    """
    vec = require_nonnegative_weights(w)
    n = len(vec)
    scale, scaled = clear_denominators(vec)
    prefix = [0, *accumulate(scaled)]
    # cols[j][k] = cost(k+1, j) and row[k] = cost(i, k), 1-based; each list
    # starts with the zeros cost(k, k) = 0 needs.
    cols = [[0] * j for j in range(n + 1)]
    row = [0] * (n + 1)
    # roots[j] is K(i+1, j) until row i overwrites it with K(i, j); the
    # initial roots[i+1] = i bounds the one split of (i, i+1).
    roots = list(range(-1, n))
    for i in range(n - 1, 0, -1):
        before = i - 1  # cost(i, j) is the right part of split i - 1
        base = prefix[before]
        left = i  # K(i, j-1), and the lowest split for j = i + 1
        for j, col, k, total in zip(
            range(i + 1, n + 1), cols[i + 1 :], roots[i + 1 :], prefix[i + 1 :]
        ):
            split = k
            best = row[k] + col[k]
            # Right to left with a strict test keeps the last minimizing split.
            while k > left:
                k -= 1
                value = row[k] + col[k]
                if value < best:
                    best = value
                    split = k
            roots[j] = left = split
            row[j] = col[before] = best + total - base
    return Fraction(cols[n][0], scale)


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Yield every ordered binary tree over leaves 1..n. Capped at n = 12."""
    _require_int("leaf count", n)
    if n < 1:
        raise DomainError(f"need at least one leaf, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"enumeration is capped at n = {ENUMERATION_CAP}, got {n}")

    def gen(lo: int, hi: int) -> Iterator[Tree]:
        if lo == hi:
            yield lo
            return
        for k in range(lo, hi):
            for left in gen(lo, k):
                for right in gen(k + 1, hi):
                    yield (left, right)

    return gen(1, n)


def _balanced_split_cost(prefix: list[int]) -> int:
    """Cost of the weight-balanced split tree, in the scaled ints of `prefix`.

    Each interval of two or more leaves splits where its left part's weight
    is closest to half its total, |2 * left - total| smallest, taking the
    first such split on ties. Like any full tree, it costs at least the
    optimum.
    """
    cost = 0
    # Intervals as prefix bounds: leaves lo + 1..hi weigh prefix[hi] - prefix[lo].
    stack = [(0, len(prefix) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > 1:
            twice = prefix[lo] + prefix[hi]
            cost += prefix[hi] - prefix[lo]
            # |2 * left - total| for the split before leaf k + 1.
            k = lo + 1
            gap = abs(2 * prefix[k] - twice)
            for m in range(k + 1, hi):
                g = abs(2 * prefix[m] - twice)
                if g < gap:
                    k, gap = m, g
            stack += ((lo, k), (k, hi))
    return cost


def brute_force_optimal(w: Sequence[RationalLike]) -> tuple[Fraction, int]:
    """Minimum cost over every ordered tree, and how many trees attain it.

    For each proper sub-interval, tabulates the costs an ordered tree over
    it can have, with the number of trees that have each: a split combines
    its left and right tables pairwise as cost(L) + cost(R) + W(interval),
    with count(L) * count(R) trees. The full interval gets no table. Its
    minimum is taken over the pairs of every root split, and its count sums
    count(L) * count(R) over the pairs that attain it. No minimum is ever
    taken over a sub-interval, so the check rests on no optimal-substructure
    argument or split window and stays independent of `dp_optimal_cost`.

    The tables keep only what a tree no dearer than UB, the cost of the
    weight-balanced split tree, could use. In a full tree, a proper interval
    I's subtree sits at depth 1 or more, and 2 or more when I holds neither
    leaf 1 nor leaf n, because the root's children hold a prefix and a
    suffix; every leaf outside I sits at depth 1 or more. So a tree that
    gives I the cost c costs at least c + W(1..n), plus W(I) when I is
    interior. An entry for which that exceeds UB is in no optimal tree,
    since the optimum is at most UB, and entries equal to the bound stay,
    since UB may be the optimum. A kept entry is made only of kept entries
    (a part costs at most c - W(I), and its interior term is at most W(I)),
    so its count is exact. Tables are lists sorted by cost, so each loop
    stops at its first entry past the bound. 11 equal weights have 16,796
    trees and 27 distinct costs, and no pruned table holds more than 8
    entries. Capped at n = 12 (58,786 trees).
    """
    vec = require_nonnegative_weights(w)
    n = len(vec)
    if n > ENUMERATION_CAP:
        raise CapacityError(f"brute force is capped at n = {ENUMERATION_CAP}, got {n}")
    if n == 1:
        return Fraction(0), 1
    scale, scaled = clear_denominators(vec)
    prefix = [0, *accumulate(scaled)]
    # UB less W(1..n): a tree costs at least an interval's entry plus W(1..n),
    # since the interval's subtree and every leaf outside it sit at depth >= 1.
    slack = _balanced_split_cost(prefix) - prefix[n]
    # counts[i][j]: (cost, number of trees) over leaves i..j, 0-based, sorted
    # by cost. Every entry starts as the single-leaf table [(0, 1)]; proper
    # sub-intervals longer than one leaf are filled in order of length before
    # any interval reads them, and the full interval's entry is never filled.
    counts: list[list[list[tuple[int, int]]]] = [[[(0, 1)]] * n for _ in range(n)]

    def splits(i: int, j: int) -> list[tuple[list, list]]:
        # Each split's two tables, the smaller first: costs add commutatively,
        # and the loops below pay per entry of the outer table. A split with
        # an empty table has no tree within the bound.
        pairs = []
        for k in range(i, j):
            left, right = counts[i][k], counts[k + 1][j]
            if left and right:
                pairs.append((left, right) if len(left) <= len(right) else (right, left))
        return pairs

    for span in range(2, n):
        for i in range(n - span + 1):
            j = i + span - 1
            weight = prefix[j + 1] - prefix[i]
            # The dearest entry a tree within the bound can use: an interior
            # interval's subtree sits at depth >= 2, adding W(i..j) once more.
            limit = slack - weight if 0 < i and j < n - 1 else slack
            table: dict[int, int] = {}
            get = table.get
            for small, large in splits(i, j):
                least = large[0][0]
                for c1, n1 in small:
                    base = c1 + weight
                    if base + least > limit:
                        break
                    for c2, n2 in large:
                        cost = base + c2
                        if cost > limit:
                            break
                        table[cost] = get(cost, 0) + n1 * n2
            counts[i][j] = sorted(table.items())
    roots = splits(0, n - 1)
    best = min(small[0][0] + large[0][0] for small, large in roots)
    count = 0
    for small, large in roots:
        costs = dict(large)
        count += sum(n1 * costs.get(best - c1, 0) for c1, n1 in small)
    return Fraction(best + prefix[n], scale), count
