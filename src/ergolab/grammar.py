"""Config grammars: each is one table from a spec's prefix to its ``Rule``.

A prefix is the spec's leading lowercase letters and the ``:`` after them,
if any, so ``proj:1,2`` and ``proj12`` reach different rules.
"""

import math
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Rule:
    parse: Callable  # (argument text, context) -> object, raising ValueError
    syntax: str  # the argument's syntax; "" for a rule that takes none
    help: str  # one line for the catalog
    example: str = ""  # an argument that parses; the catalog builds systems from it


def parse_spec(table, what, spec, context):
    """The object ``spec`` names in ``table``; ``context`` goes to its parser."""
    prefix = re.match(r"[a-z]*:?", spec).group()
    rule = table.get(prefix)
    text = spec[len(prefix):]
    if rule is None or (text and not rule.syntax):
        raise ValueError(f"unknown {what} {spec!r}; prefixes: {', '.join(table)}")
    try:
        return rule.parse(text, context)
    except ArithmeticError as exc:  # Fraction("1/0"), an integer too large for a float
        raise ValueError(f"{spec!r}: {exc}") from None


def parse_numbers(text):
    """Comma-separated finite floats."""
    numbers = tuple(float(v) for v in text.split(","))
    if not all(math.isfinite(v) for v in numbers):
        raise ValueError(f"must be finite: {text!r}")
    return numbers


def parse_axes(text, dim):
    """Comma-separated distinct 1-based coordinates of T^dim, as 0-based axes."""
    axes = tuple(int(a) - 1 for a in text.split(","))
    if len(set(axes)) != len(axes) or any(not 0 <= a < dim for a in axes):
        raise ValueError(f"coordinates must be distinct and in 1..{dim}: {text!r}")
    return axes
