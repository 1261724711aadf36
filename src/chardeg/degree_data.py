"""Character-degree tables supplied as data, and the checks that run on them.

A table is one named group with a multiset of character degrees (1 must be
present; lists may be partial supports for large groups), an optional exact
order, optional outer-automorphism-group order, an optional asserted pair of
degrees (alpha, beta) whose extendibility is taken on faith from the data
source, and an optional Fitting-subgroup index.

The on-disk format is TSV, one group per line:

    name <TAB> order <TAB> degrees <TAB> out <TAB> alpha,beta <TAB> fitting

with '#' comment lines, empty optional fields, comma-separated degrees, and
all integers as ASCII decimal digits, at most POWER_MAX_DIGITS of them.

DegreeTable is an immutable NamedTuple compared by value; it checks its
fields and sorts its degrees in __new__.  The checks return a verdict:
check_extendible_pair gives True, False or None (nothing to check), and its
caller reads the name, pair and order from the table itself.
"""

from pathlib import Path
from typing import NamedTuple

from .exact_arith import POWER_MAX_DIGITS, check_power_bits, cmp_power

__all__ = [
    "DegreeTable",
    "TableError",
    "parse_table",
    "parse_tables",
    "load_dir",
    "rat",
    "check_extendible_pair",
    "check_exponent_bound",
]


class TableError(ValueError):
    """Parse or validation failure; parse_tables prefixes "line N: ", load_dir the file."""


class _DegreeTableFields(NamedTuple):
    name: str
    degrees: tuple[int, ...]  # sorted ascending, duplicates preserved
    order: int | None = None
    out_order: int | None = None
    extendible_pair: tuple[int, int] | None = None  # (alpha, beta)
    fitting_index: int | None = None


class DegreeTable(_DegreeTableFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.degrees:
            raise TableError(f"{self.name}: empty degree list")
        if any(d < 1 for d in self.degrees):
            raise TableError(f"{self.name}: degrees must be positive")
        if 1 not in self.degrees:
            raise TableError(f"{self.name}: degree 1 missing")
        self = self._replace(degrees=tuple(sorted(self.degrees)))
        for what, value in (("out order", self.out_order), ("fitting index", self.fitting_index)):
            if value is not None and value < 1:
                raise TableError(f"{self.name}: {what} must be at least 1, got {value}")
        if self.order is not None:
            if self.order < 1:
                raise TableError(f"{self.name}: order must be positive")
            bad = next((d for d in self.degrees if self.order % d), None)
            if bad is not None:
                raise TableError(
                    f"{self.name}: degree {bad} does not divide the order {self.order}"
                )
            squares = sum(d * d for d in self.degrees)
            if squares > self.order:
                raise TableError(
                    f"{self.name}: the squared degrees sum to {squares},"
                    f" more than the order {self.order}"
                )
        if self.extendible_pair is not None:
            a, b = self.extendible_pair
            if a not in self.degrees or b not in self.degrees:
                raise TableError(
                    f"{self.name}: asserted pair ({a},{b}) not among the degrees"
                )
        return self


def _parse_int(text: str, what: str) -> int:
    if len(text) > POWER_MAX_DIGITS:
        raise TableError(f"{what} has more than {POWER_MAX_DIGITS} digits")
    if not (text.isascii() and text.isdigit()):
        raise TableError(f"bad {what} {text!r}")
    return int(text)


def parse_table(text: str) -> DegreeTable:
    """Parse a single TSV line into a DegreeTable."""
    cols = text.rstrip("\n").split("\t")
    if len(cols) < 3:
        raise TableError("expected at least name, order, degrees columns")
    if len(cols) > 6:
        raise TableError(f"expected at most 6 columns (name, order, degrees, out, "
                         f"alpha,beta, fitting), got {len(cols)}")
    cols += [""] * (6 - len(cols))
    name, order_s, degrees_s, out_s, pair_s, fit_s = (c.strip() for c in cols)
    if not name:
        raise TableError("empty group name")
    if not degrees_s:
        raise TableError("empty degrees field")
    degrees = tuple(_parse_int(d.strip(), "degree") for d in degrees_s.split(","))
    order = _parse_int(order_s, "order") if order_s else None
    out = _parse_int(out_s, "out order") if out_s else None
    pair = None
    if pair_s:
        bits = pair_s.split(",")
        if len(bits) != 2:
            raise TableError(f"bad pair {pair_s!r}")
        pair = (_parse_int(bits[0].strip(), "alpha"), _parse_int(bits[1].strip(), "beta"))
    fitting = _parse_int(fit_s, "fitting index") if fit_s else None
    return DegreeTable(name, degrees, order, out, pair, fitting)


def parse_tables(text: str) -> list[DegreeTable]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_table(raw))
        except TableError as exc:
            raise TableError(f"line {i}: {exc}") from None
    return out


def load_dir(path: str | Path) -> list[DegreeTable]:
    """All tables from the *.tsv files of a data directory, in filename
    order; raises FileNotFoundError for a missing directory, and TableError
    for a bad line ("<file>: line N: ...") or a name two tables share."""
    p = Path(path)
    if not p.is_dir():
        raise FileNotFoundError(f"data directory {p} not found")
    tables = []
    for f in sorted(p.glob("*.tsv")):
        try:
            tables.extend(parse_tables(f.read_text()))
        except TableError as exc:
            raise TableError(f"{f}: {exc}") from None
    names = [t.name for t in tables]
    if len(set(names)) != len(names):
        raise TableError(f"duplicate table names in data directory {p}")
    return tables


def rat(table: DegreeTable) -> tuple[int, int]:
    """The pair (b, c) of rat(G) = b(G)/c(G), as the degrees give it: the
    largest degree b and the least degree above 1 c, or 1 when every degree
    is 1.  The pair is not reduced."""
    return table.degrees[-1], next((d for d in table.degrees if d > 1), 1)


def check_extendible_pair(table: DegreeTable) -> bool | None:
    """Certify alpha**14 > beta**14 * |G| for the asserted pair (strict).

    A table without an order or a pair gives None (unchecked) rather than a
    failure.  A pair whose beta is 1 is rejected: the inequality concerns two
    nonlinear degrees.
    """
    if table.order is None or table.extendible_pair is None:
        return None
    alpha, beta = table.extendible_pair
    if beta < 2 or alpha < 2:
        raise TableError(f"{table.name}: pair degrees must be nonlinear (>= 2)")
    return cmp_power(((alpha, 14),), ((beta, 14), (table.order, 1))) > 0


def check_exponent_bound(x: int, y: int, num: int, den: int) -> bool:
    """Exact verdict on x <= y**(num/den), i.e. x**den <= y**num.  Raises
    ValueError when either power could exceed POWER_MAX_BITS bits."""
    if den < 1:
        raise ValueError("check_exponent_bound requires den >= 1")
    if x < 0 or y < 0 or num < 0:
        raise ValueError("check_exponent_bound requires nonnegative arguments")
    check_power_bits(
        "check_exponent_bound", max(den * x.bit_length(), num * y.bit_length())
    )
    return cmp_power(((x, den),), ((y, num),)) <= 0
