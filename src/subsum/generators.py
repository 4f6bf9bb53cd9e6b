"""Seeded, reproducible instance generators.

Three families:

  * powers2: elements 1, 2, 4, ..., 2^(n-1) with target 2^n. Every one of
    the 2^n subset sums is distinct (they are exactly 0..2^n-1) and all
    fall short of the target, so the instance is unsolvable. Seed-free.
  * random: elements uniform in [1, 4^n], target uniform in [1, n*4^n]
    (floor 1). Magnitudes near 2n bits keep the 2^n subset sums distinct
    with high probability; up to n = 20 distinctness is verified outright
    and the generator redraws until it holds, above that it is accepted
    probabilistically and flagged in the metadata sidecar. The check
    enumerates about 2 * 3^(n/2) signed half sums (see
    has_distinct_subset_sums), not the 2^n subset sums.
  * planted: target defined as the sum of a uniformly chosen subset of a
    given size, so a solution is guaranteed and returned with the instance.
    Elements follow the random family's rule, not its draws (see gen_planted).

Same spec in, byte-identical files out: all randomness comes from the
pinned stream in subsum.rng.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .model import Instance, _int_text, subset_sum
from .rng import SplitMix64

FAMILY_POWERS2 = "powers2"
FAMILY_RANDOM = "random"
FAMILY_PLANTED = "planted"
FAMILIES = (FAMILY_POWERS2, FAMILY_RANDOM, FAMILY_PLANTED)

# Verifying that all 2^n subset sums are distinct costs about 2 * 3^(n/2)
# time and memory: 0.12 M sums at n = 20, 1.1 M at n = 24.
DISTINCT_VERIFY_MAX_N = 20


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    seed: int = 0
    planted_size: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.planted_size is not None:
            if self.family != FAMILY_PLANTED:
                raise ValueError("planted_size is only valid for the planted family")
            if not 0 <= self.planted_size <= self.n:
                raise ValueError(f"planted_size must be in [0, {_int_text(self.n)}]")


@dataclass(frozen=True)
class InstanceMeta:
    """Sidecar metadata emitted next to each generated instance file."""
    family: str
    seed: int | None
    distinct_verified: bool
    planted_mask: int | None


def _signed_sums(elements) -> list[int]:
    """All 3^k sums c . elements with c in {-1, 0, 1}^k; entry 0 has c = 0."""
    sums = [0]
    for a in elements:
        sums += [s + a for s in sums] + [s - a for s in sums]
    return sums


def has_distinct_subset_sums(elements) -> bool:
    """Whether the 2^n subset sums of elements are pairwise distinct.

    Two subsets have equal sums exactly when some nonzero c in {-1, 0, 1}^n
    has sum(c_i * a_i) = 0: c is the first subset's indicator minus the
    second's. Split c into halves as Horowitz and Sahni split a subset
    (J. ACM 21(2), 1974). A zero sum comes from one half alone, when that
    half's signed sums reach 0 at a nonzero c, or from both halves, when
    they share a nonzero value (a half's signed sums are closed under
    negation). So the check costs about 2 * 3^(n/2) sums, not 2^n.
    """
    elements = tuple(elements)
    split = len(elements) // 2
    front = _signed_sums(elements[:split])
    if front.count(0) > 1:
        return False
    back = _signed_sums(elements[split:])
    return back.count(0) == 1 and set(front).intersection(back) == {0}


def gen_powers_of_two(n: int) -> Instance:
    """The deterministic unsolvable family with all subset sums distinct."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Instance(tuple(1 << i for i in range(n)), 1 << n)


def _draw_elements(rng: SplitMix64, n: int) -> tuple[int, ...]:
    bound = 4 ** n
    return tuple(rng.next_in_range(1, bound) for _ in range(n))


def gen_random_wide(n: int, seed: int) -> Instance:
    """Wide-magnitude random instance; usually unsolvable by counting.

    Stream order per attempt: n element draws, then the target draw, then
    the distinctness check (n <= DISTINCT_VERIFY_MAX_N only). A failed
    check redraws the whole attempt from the continuing stream.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = SplitMix64(seed)
    target_bound = max(1, n * 4 ** n)
    while True:
        elements = _draw_elements(rng, n)
        target = rng.next_in_range(1, target_bound)
        if n > DISTINCT_VERIFY_MAX_N or has_distinct_subset_sums(elements):
            return Instance(elements, target)


def gen_planted(n: int, seed: int, planted_size: int | None = None) -> tuple[Instance, int]:
    """Instance whose target is the sum of a random subset of the given size.

    The size defaults to n // 2. Elements follow the random family's rule and
    retry, but an attempt draws no target, so after a retry a seed's elements
    differ from gen_random_wide's. The subset is a uniform size-k index set
    chosen by partial Fisher-Yates over the same stream.
    Returns the instance and the planted mask, which always verifies.
    """
    if planted_size is None:
        planted_size = n // 2
    if not 0 <= planted_size <= n:
        raise ValueError(f"planted_size must be in [0, {_int_text(n)}]")
    rng = SplitMix64(seed)
    while True:
        elements = _draw_elements(rng, n)
        if n > DISTINCT_VERIFY_MAX_N or has_distinct_subset_sums(elements):
            break
    indices = list(range(n))
    for i in range(planted_size):
        j = i + rng.next_below(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    mask = 0
    for i in indices[:planted_size]:
        mask |= 1 << i
    instance = Instance(elements, sum(elements[i] for i in indices[:planted_size]))
    if subset_sum(instance, mask) != instance.target:
        raise RuntimeError(f"planted mask {mask:#x} does not sum to the target")
    return instance, mask


def generate(spec: GeneratorSpec) -> tuple[Instance, InstanceMeta]:
    """Build the instance plus its metadata sidecar for a generator spec."""
    mask = None
    if spec.family == FAMILY_POWERS2:
        instance = gen_powers_of_two(spec.n)
    elif spec.family == FAMILY_RANDOM:
        instance = gen_random_wide(spec.n, spec.seed)
    else:
        instance, mask = gen_planted(spec.n, spec.seed, spec.planted_size)
    # powers2 is seed-free, and its sums 0..2^n-1 are distinct by construction.
    seeded = spec.family != FAMILY_POWERS2
    return instance, InstanceMeta(spec.family, spec.seed if seeded else None,
                                  not seeded or spec.n <= DISTINCT_VERIFY_MAX_N, mask)


def dumps_meta(meta: InstanceMeta) -> str:
    mask = meta.planted_mask  # README's four keys, in field order; the mask in hex
    doc = dict(asdict(meta), planted_mask=None if mask is None else f"{mask:x}")
    return json.dumps(doc, separators=(",", ":")) + "\n"

