"""Monte-Carlo validation of the cost algebra.

One bit-sliced executor runs a strategy tree over many samples at once.
A row is one Python int with one bit per sample, bit i for sample i, and
every step of the walk is a handful of whole-row AND, XOR and OR
operations.  Every leaf's and every operation's success is an independent
Bernoulli draw that only ANDs into delivery, so each sample first reads
one uniform u and delivers iff u < S, the product of those probabilities
in post-order.  The walk then draws each leaf's flip, with probability
1 - fidelity, for the samples still delivered.  Swapping XORs the flip
bits of its inputs, purification post-selects on agreement.  The joint
law of (delivered, flips) is unchanged by drawing S once; only the bits
a seed gives are.  success_hat samples the kernel's own product S, so a
success factor the algebra drops still shows.  Estimates tally delivery
and flip rates with int.bit_count().  The 4x4 density-matrix check of the
dephasing channel is a test oracle, in tests/_reference.py.

With physical acceptance off, a purification whose flips disagree still
delivers, as the algebra charges no acceptance to success; the fidelity is
then estimated over the delivered samples that agreed at every
purification, the post-selected state the algebra's fidelity describes.

A uniform is a 53-bit integer k, u = k / 2**53, revealed one bit level at
a time from the top: each level draws one mask of getrandbits(n), bit i
being the next bit of sample i's k, from random.Random(seed).  A
probability p becomes T = ceil(p * 2**53), and k < T exactly when u < p.
The comparison of a row of samples against T keeps the undecided samples,
those whose bits so far equal T's; a level decides those whose bit differs
from T's.  Levels stop at T's lowest set bit (every sample still undecided
there has k >= T) or once no sample is undecided, so a comparison draws
about log2(n) + 2 masks, not 53.  A chunk of a tree of L leaves makes
L + 1 comparisons: the success draw, then one per leaf over the delivered
row only.  On a large tree the success draw often delivers no sample of a
chunk, which then stops before any flip, as it does once purifications
have failed every sample.

Memory: a row of n samples is an int of ceil(n / 30) four-byte digits,
2/15 byte a sample.  A chunk holds depth + 12 rows (the flip stack and,
beside it, the delivered and disagreement rows, a mask and the
comparison's working rows), so (depth + 12) * 2/15 bytes a sample and 48
bytes a row: about 2 bytes a sample for a tree 4 levels deep.  A chunk
takes at most 65,536 samples, and fewer when its rows would not fit in
32 MiB.  Chunks run one after another in the calling thread, from one
stream, so an estimate is a function of (tree, graph, samples, seed).  An
estimate takes at most 2**40 samples.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from math import ceil, sqrt
from random import Random

from .graph import NetworkGraph
from .reduction import Leaf, StrategyTree, Swap, check_strategy

__all__ = ["McEstimate", "estimate"]

# A chunk holds at most _CHUNK_SAMPLES samples: every doubling of a chunk
# adds a level to each comparison, and masks of more than 2**18 bits cost
# more per bit to draw (0.39 ns at 2**20 against 0.32 at 2**16, 2-core
# VM), so larger chunks are slower.  Its rows fit in _CHUNK_BYTES: the
# flip stack, as deep as the post-order walk gets, and _ROWS more
# (running delivered, disagreement, mask and the comparison's working
# rows, 10 at most, with 2 to spare for getrandbits' word buffer and small
# objects).  A row of n samples holds ceil(n / 30) digits of 4 bytes and
# _ROW_HEADER more: the int's 24-byte header, its slot in the stack and
# the allocator's rounding.
_CHUNK_SAMPLES = 1 << 16
_CHUNK_BYTES = 32 << 20
_ROWS = 12
_ROW_HEADER = 48
# An estimate takes at most _MAX_SAMPLES samples, a few hours of drawing:
# one leaf runs at 0.8-1.4e8 samples/s (2-core VM), so 2**40 take
# 2.2-3.9 h, and a larger request is refused rather than left running.
_MAX_SAMPLES = 1 << 40
_UNIT = 1 << 53  # the uniforms are k / _UNIT for 53-bit integers k

Threshold = int  # T = ceil(p * 2**53), in [0, 2**53]
Step = tuple[type[StrategyTree], Threshold]


# fidelity_hat and std_error_fidelity are None when no sample succeeds
McEstimate = namedtuple(
    "McEstimate",
    "fidelity_hat success_hat std_error_fidelity std_error_success samples seed",
)


def _threshold(p: float) -> Threshold:
    """T = ceil(p * 2**53): a 53-bit k has k < T exactly when k / 2**53 < p.

    Scaling by a power of two is exact, so is the ceiling of the float.
    """
    return ceil(p * float(_UNIT))


def _below(draw: Callable[[int], int], n: int, undecided: int, t: Threshold) -> int:
    """Row of the samples of `undecided` whose uniform k is below t.

    Level j draws one mask, draw(n), bit i being bit 52 - j of sample i's
    k.  At a level where t's bit is 1, an undecided sample whose bit is 0
    is below t; where it is 0, one whose bit is 1 is not.  t = 2**53 takes
    every sample and t = 0 none, drawing nothing; otherwise the levels
    stop at t's lowest set bit, where every sample still undecided has
    k >= t, or once no sample is undecided.
    """
    if t == _UNIT:
        return undecided
    if not t:
        return 0
    below = 0
    for shift in range(52, (t & -t).bit_length() - 2, -1):
        if not undecided:
            break
        same = undecided & draw(n)
        if t >> shift & 1:
            below |= undecided ^ same
            undecided = same
        else:
            undecided ^= same
    return below


def _run_chunk(
    success: Threshold,
    steps: list[Step],
    acceptance: bool,
    draw: Callable[[int], int],
    n: int,
) -> tuple[int, int, int]:
    """Delivered / accepted / accepted-and-unflipped tallies of n samples.

    A delivered sample is accepted when its flips agree at every
    purification; with physical acceptance on, a disagreement already
    fails the purification, so every delivered sample is accepted.

    The delivered row starts as the samples below success, the threshold
    of S.  steps holds one (kind, t) per post-order node, t being a leaf's
    threshold of 1 - fidelity and an operation's 0.  A leaf pushes its
    flip row, drawn over the delivered samples; a swap XORs its operands'
    flips into the left one, a purification compares them.  A chunk whose
    delivered row is 0 stops: its tallies are 0.
    """
    delivered = _below(draw, n, (1 << n) - 1, success)
    disagreed = 0  # acceptance off: the samples whose flips ever disagreed
    flips: list[int] = []
    for kind, t in steps:
        if not delivered:
            return 0, 0, 0  # every sample has failed
        if kind is Leaf:
            flips.append(_below(draw, n, delivered, t))
            continue
        flip = flips.pop()
        if kind is Swap:
            flips[-1] ^= flip
        else:
            flip ^= flips[-1]
            if acceptance:
                delivered ^= delivered & flip
            else:
                disagreed |= flip
    accepted = delivered ^ (delivered & disagreed)
    unflipped = accepted ^ (accepted & flips[0])
    return delivered.bit_count(), accepted.bit_count(), unflipped.bit_count()


def _chunk_samples(depth: int) -> int:
    """The most samples a chunk takes: _CHUNK_SAMPLES, or fewer when their
    depth + _ROWS rows would not fit in _CHUNK_BYTES."""
    row = _CHUNK_BYTES // (depth + _ROWS) - _ROW_HEADER
    return min(_CHUNK_SAMPLES, 30 * max(1, row // 4))


def check_sampling(samples: int, seed: int) -> None:
    """ValueError unless 1 <= samples <= 2**40 and 0 <= seed < 2**128."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be <= 2**40 ({_MAX_SAMPLES:,})")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed {seed} outside [0, 2**128)")


def estimate(
    tree: StrategyTree,
    g: NetworkGraph,
    samples: int,
    seed: int,
) -> McEstimate:
    """Monte-Carlo estimate of a strategy's fidelity and success probability.

    The estimate depends only on (tree, graph, samples, seed).  fidelity_hat
    and its standard error are None when no sample was accepted.
    """
    check_sampling(samples, seed)
    nodes = check_strategy(tree, g)
    ops, rows = g.op_costs, g.channels
    steps: list[Step] = []
    success = 1.0
    height = depth = 0
    for node in nodes:
        if isinstance(node, Leaf):
            _, _, fidelity, leaf_success = rows[node.channel]
            success *= leaf_success
            steps.append((Leaf, _threshold(1.0 - fidelity)))
            height += 1
            depth = max(depth, height)
        else:
            swap = isinstance(node, Swap)
            success *= ops.swap_success if swap else ops.purify_success
            steps.append((type(node), 0))
            height -= 1
    success_t, acceptance = _threshold(success), ops.physical_acceptance
    # The fewest chunks that fit, of nearly equal size, one after another
    # from one stream.
    chunks = -(-samples // _chunk_samples(depth))
    draw = Random(seed).getrandbits
    delivered = accepted = unflipped = start = 0
    for k in range(1, chunks + 1):
        end = samples * k // chunks
        d, a, u = _run_chunk(success_t, steps, acceptance, draw, end - start)
        delivered, accepted, unflipped = delivered + d, accepted + a, unflipped + u
        start = end

    success_hat = delivered / samples
    se_success = sqrt(success_hat * (1.0 - success_hat) / samples)
    if accepted == 0:
        return McEstimate(None, success_hat, None, se_success, samples, seed)
    fidelity_hat = unflipped / accepted
    se_fidelity = sqrt(fidelity_hat * (1.0 - fidelity_hat) / accepted)
    return McEstimate(
        fidelity_hat, success_hat, se_fidelity, se_success, samples, seed
    )
