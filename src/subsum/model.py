"""Exact subset-sum instances, index masks, and the canonical instance file format.

All arithmetic is performed on Python ints, which are arbitrary-precision,
so sums are always exact and overflow cannot occur. Element values and the
target are serialized as decimal strings so the file format carries no
machine word size.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from dataclasses import dataclass

_DECIMAL_RE = re.compile(r"-?[0-9]+")


class InstanceFormatError(ValueError):
    """Raised when an instance document violates the file format."""


@dataclass(frozen=True)
class Instance:
    """A subset-sum instance: an ordered list of integers and a target.

    Elements are kept in input order and may repeat or be negative; subsets
    are identified by index masks, so duplicates stay unambiguous. n = 0 is
    legal: the only subset is empty and the instance is solvable iff the
    target is zero.
    """

    elements: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for x in self.elements:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"element {_quote(x)} is not an int")
        if not isinstance(self.target, int) or isinstance(self.target, bool):
            raise TypeError(f"target {_quote(self.target)} is not an int")

    @property
    def n(self) -> int:
        return len(self.elements)


def check_mask(instance: Instance, mask: int) -> None:
    """Validate that mask is an n-bit index set for this instance."""
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise TypeError(f"mask {_quote(mask)} is not an int")
    if mask < 0 or mask >> instance.n:
        raise ValueError(f"mask {_clip(f'{mask:#x}')} out of range for n={instance.n}")


def mask_indices(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_sum(instance: Instance, mask: int) -> int:
    """Sum of the elements selected by mask; zero for the empty mask."""
    check_mask(instance, mask)
    total = 0
    elements = instance.elements
    for i in mask_indices(mask):
        total += elements[i]
    return total


def all_subset_sums(elements) -> list[int]:
    """All 2^n subset sums by doubling; entry k is the sum of relative mask k."""
    sums = [0]
    for a in elements:
        sums += [s + a for s in sums]
    return sums


def sorted_subset_sums(elements, base: int = 0) -> list[int]:
    """All 2^n values base + subset sum, ascending, built by merging.

    Horowitz and Sahni's enumeration: each doubling step appends the list
    shifted by one element, which leaves two ascending runs that timsort
    merges in linear time, so the list is never sorted from scratch.
    """
    sums = [base]
    for a in elements:
        sums += [s + a for s in sums]
        sums.sort()
    return sums


def verify(instance: Instance, mask: int) -> bool:
    """True iff the masked subset sums exactly to the target."""
    return subset_sum(instance, mask) == instance.target


def dumps_instance(instance: Instance) -> str:
    """Canonical single-line JSON encoding; byte-stable for identical instances."""
    # The widest value first, so one past the digit limit is refused
    # before any other is converted.
    str(max((instance.target, *instance.elements), key=int.bit_length))
    doc = {
        "n": instance.n,
        "a": [str(x) for x in instance.elements],
        "b": str(instance.target),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _int_text(value: int) -> str:
    """str(value), or its bit length past CPython's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


def _clip(text: str) -> str:
    """text for an error message; past 100 characters, a prefix and its length."""
    return text if len(text) <= 100 else f"{text[:60]}... ({len(text)} characters)"


def _quote(value) -> str:
    """repr(value), or an int's _int_text, for an error message, clipped."""
    return _clip(_int_text(value) if isinstance(value, int) else repr(value))


def _parse_decimal(s, what: str) -> int:
    # int() would accept "1_0" and surrounding whitespace; the format does not.
    if not isinstance(s, str) or not _DECIMAL_RE.fullmatch(s):
        raise InstanceFormatError(f"{what} must be a decimal string, got {_quote(s)}")
    try:
        return int(s)
    except ValueError:  # CPython refuses to convert past its digit limit
        raise InstanceFormatError(
            f"{what} has {len(s.lstrip('-'))} digits, over the interpreter's "
            f"limit of {sys.get_int_max_str_digits()}") from None


def _unique_keys(pairs) -> dict:
    # json.loads alone keeps the last of repeated keys, so {"b":"5","b":"7"}
    # would read as target 7.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"duplicate key {_quote(key)}")
        doc[key] = value
    return doc


def loads_instance(text: str) -> Instance:
    """Parse the canonical instance document, rejecting malformed input."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:  # not exit 1, which reads as a negative answer
        raise InstanceFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    missing = {"n", "a", "b"} - doc.keys()
    if missing:
        raise InstanceFormatError(f"missing keys: {sorted(missing)}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InstanceFormatError(f"n must be a nonnegative integer, got {_quote(n)}")
    if not isinstance(doc["a"], list):
        raise InstanceFormatError("a must be a list of decimal strings")
    elements = tuple(_parse_decimal(s, "element") for s in doc["a"])
    if len(elements) != n:
        raise InstanceFormatError(f"n={_quote(n)} but {len(elements)} elements given")
    target = _parse_decimal(doc["b"], "target")
    return Instance(elements, target)


def _write_text(path, *pieces: str) -> None:
    """Write the pieces to path as UTF-8, overwriting in place.

    The file is opened without truncating it, because truncating a file
    that holds data to zero makes some file systems (ext4's auto_da_alloc)
    flush it on close. A regular file is cut after the last byte written;
    a device such as /dev/null is not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        for piece in pieces:
            fh.write(piece)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_instance(instance: Instance, path) -> None:
    _write_text(path, dumps_instance(instance))


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())
