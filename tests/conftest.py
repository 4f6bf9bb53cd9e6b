"""Shared test helpers: independent oracles kept deliberately separate from
the library's own code paths (combinations-based enumeration instead of mask
walking, a from-scratch scan simulation instead of the solver's loop)."""

from itertools import combinations

from subsum import CompareEvent, Instance, Ordering


def oracle_matching_masks(elements, target) -> list[int]:
    """Every matching mask, found by enumerating index combinations."""
    n = len(elements)
    found = []
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            if sum(elements[i] for i in combo) == target:
                mask = 0
                for i in combo:
                    mask |= 1 << i
                found.append(mask)
    return sorted(found)


def oracle_solvable(elements, target) -> bool:
    n = len(elements)
    return any(sum(elements[i] for i in combo) == target
               for r in range(n + 1)
               for combo in combinations(range(n), r))


def _combo_entries(elements, index_range, target=None):
    entries = []
    indices = list(index_range)
    for r in range(len(indices) + 1):
        for combo in combinations(indices, r):
            total = sum(elements[i] for i in combo)
            mask = 0
            for i in combo:
                mask |= 1 << i
            key = total if target is None else target - total
            entries.append((key, mask))
    entries.sort()
    return entries


def simulate_mitm_scan(elements, target):
    """Straight-line re-derivation of the two-pointer scan's outcome.

    Returns (mask or None, comparison count). Built from combinations and
    plain sorts so it shares nothing with the solver under test.
    """
    n = len(elements)
    split = (n + 1) // 2
    front = _combo_entries(elements, range(split))
    back = _combo_entries(elements, range(split, n), target=target)
    i = j = 0
    count = 0
    while i < len(front) and j < len(back):
        count += 1
        lhs, rhs = front[i][0], back[j][0]
        if lhs == rhs:
            return front[i][1] | back[j][1], count
        if lhs < rhs:
            i += 1
        else:
            j += 1
    return None, count


def compare_event(lhs, rhs) -> CompareEvent:
    """The CompareEvent of lhs against rhs, its outcome from plain comparisons."""
    outcome = Ordering.EQ if lhs == rhs else Ordering.LT if lhs < rhs else Ordering.GT
    return CompareEvent(lhs, rhs, outcome)


def make_instance(elements, target) -> Instance:
    return Instance(tuple(elements), target)
