"""Exact calculators for the structural inequalities.

These operate on user-supplied structural data (chief-factor descriptors,
subgroup indices); nothing here computes radicals or Fitting subgroups from
a group presentation.  The decimal exponents 1.43, 0.259, ... are treated as
the exact rationals 143/100, 259/1000, ... throughout.  A degree ratio a/b
is the pair of ints (a, b), which goes to cmp_power split, a on its own side
and b on the other, so every verdict compares two integer products.  A chief
series is a tuple of ChiefFactorDescriptor, an immutable NamedTuple compared
by value that checks its fields in __new__.
"""

import math
from typing import NamedTuple

from .exact_arith import POWER_MAX_DIGITS, check_power_bits, cmp_power, is_prime, nth_root_floor
from .degree_data import DegreeTable

__all__ = [
    "ChiefFactorDescriptor",
    "series_from_json",
    "rat14_lower_bound",
    "quotient_power_check",
    "maroti_bound",
    "solvable_index_bound",
    "radical_index_check",
    "frobenius_example",
    "extraspecial_example",
    "FROBENIUS_MAX_DEGREES",
]

# frobenius_example lists every degree, m + (p-1)/m of them; beyond this many
# it refuses instead of allocating a tuple that grows with p.
FROBENIUS_MAX_DEGREES = 100_000


class _ChiefFactorFields(NamedTuple):
    label: str
    factor_order: int
    multiplicity: int
    is_abelian: bool
    is_psl2: bool


class ChiefFactorDescriptor(_ChiefFactorFields):
    """One chief factor S^k: the simple (or abelian) factor order, the number
    of copies, and the two flags that exempt a factor from the product bound."""

    __slots__ = ()

    def __new__(
        cls, label: str, factor_order: int, multiplicity: int, is_abelian: bool, is_psl2: bool
    ):
        if factor_order < 2:
            raise ValueError("factor order must be at least 2")
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if is_abelian and is_psl2:
            raise ValueError("a chief factor cannot be both abelian and PSL_2-type")
        return super().__new__(cls, label, factor_order, multiplicity, is_abelian, is_psl2)


class _NumberText(str):
    """The text of a JSON number literal that json.loads leaves unconverted:
    an integer longer than POWER_MAX_DIGITS, or one with a fraction or an
    exponent, which a message then shows as written."""

    __slots__ = ()


def _parse_int(text: str) -> int | _NumberText:
    # The cap is on the text: an abelian or PSL_2 factor's order never enters the product.
    return int(text) if len(text) <= POWER_MAX_DIGITS else _NumberText(text)


def _shown(value) -> str:
    # value as JSON text, each number literal as the document wrote it.
    import json

    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    if type(value) is dict:
        return f"{{{', '.join(f'{json.dumps(k)}: {_shown(v)}' for k, v in value.items())}}}"
    return value if type(value) is _NumberText else json.dumps(value)


def _json_count(value, key: str, where: str) -> int:
    if type(value) is int:
        return value
    digits = isinstance(value, str) and value.isascii() and value.isdigit()
    if (digits or type(value) is _NumberText) and len(value) > POWER_MAX_DIGITS:
        raise ValueError(f"{where}: {key!r} has more than {POWER_MAX_DIGITS} digits")
    if digits:
        return int(value)
    raise ValueError(
        f"{where}: {key!r} must be a JSON integer or a decimal string, got {_shown(value)}"
    )


def _json_flag(value, key: str, where: str) -> bool:
    if type(value) is not bool:
        raise ValueError(f"{where}: {key!r} must be true or false, got {_shown(value)}")
    return value


def series_from_json(text: str) -> tuple[ChiefFactorDescriptor, ...]:
    """Accepts {"factors": [{"label": ..., "order": "20160",
    "multiplicity": 2, "abelian": false, "psl2": false}, ...]}.

    order (required) and multiplicity (default 1) are each a JSON integer
    or a string of decimal digits, of at most POWER_MAX_DIGITS digits,
    abelian and psl2 (default false) JSON booleans; any other shape raises
    ValueError naming the factor and key, rather than reading "false" as
    true, truncating 20160.9 or spending seconds converting a million digits.
    """
    import json  # only reading a chief series needs json

    doc = json.loads(text, parse_int=_parse_int, parse_float=_NumberText)
    if not isinstance(doc, dict) or not isinstance(doc.get("factors"), list):
        raise ValueError('a chief series is a JSON object {"factors": [...]}')
    if not doc["factors"]:
        raise ValueError("a chief series has at least one factor; 'factors' is empty")
    factors = []
    for i, f in enumerate(doc["factors"]):
        where = f"chief factor {i}"
        if not isinstance(f, dict):
            raise ValueError(f"{where} must be a JSON object, got {_shown(f)}")
        if "order" not in f:
            raise ValueError(f"{where} has no 'order'")
        factors.append(
            ChiefFactorDescriptor(
                label=str(f.get("label", "")),
                factor_order=_json_count(f["order"], "order", where),
                multiplicity=_json_count(f.get("multiplicity", 1), "multiplicity", where),
                is_abelian=_json_flag(f.get("abelian", False), "abelian", where),
                is_psl2=_json_flag(f.get("psl2", False), "psl2", where),
            )
        )
    return tuple(factors)


def rat14_lower_bound(series: tuple[ChiefFactorDescriptor, ...]) -> int:
    """Product of |S|**k over the nonabelian, non-PSL_2 chief factors; the
    caller reads the result P as the certified bound rat(G)**14 >= P.
    Raises ValueError when P could exceed POWER_MAX_BITS bits."""
    counted = [f for f in series if not f.is_abelian and not f.is_psl2]
    check_power_bits(
        "rat14_lower_bound", sum(f.multiplicity * f.factor_order.bit_length() for f in counted)
    )
    return math.prod(f.factor_order ** f.multiplicity for f in counted)


def quotient_power_check(rat_g: tuple[int, int], rat_gn: tuple[int, int], order_n: int) -> bool:
    """Exact verdict on (a/b)**14 >= (c/d)**14 * order_n for rat_g = (a, b)
    and rat_gn = (c, d), on a**14 * d**14 >= c**14 * b**14 * order_n.  Raises
    ValueError when a side could exceed POWER_MAX_BITS bits."""
    (a, b), (c, d) = rat_g, rat_gn
    if not (a >= b >= 1 and c >= d >= 1):
        raise ValueError("degree ratios are at least 1")
    if order_n < 1:
        raise ValueError("order_n must be positive")
    # A ratio >= 1 has the longer numerator, which bounds each side.
    check_power_bits(
        "quotient_power_check", 14 * (a.bit_length() + c.bit_length()) + order_n.bit_length()
    )
    return cmp_power(((a, 14), (d, 14)), ((c, 14), (b, 14), (order_n, 1))) >= 0


def maroti_bound(n: int, d: int) -> int:
    """floor of d!**((n-1)/(d-1)): the largest B with B**(d-1) <= (d!)**(n-1).

    This bounds the order of a degree-n permutation group none of whose
    composition factors is an alternating group of degree above d.  Raises
    ValueError when d!**(n-1) could exceed POWER_MAX_BITS bits.
    """
    if d < 4:
        raise ValueError("maroti_bound requires d >= 4")
    if n < 1:
        raise ValueError("maroti_bound requires n >= 1")
    # d! < d**d has at most d * d.bit_length() bits; n = 1 still builds d!
    check_power_bits("maroti_bound", max(n - 1, 1) * d * d.bit_length())
    return nth_root_floor(math.factorial(d) ** (n - 1), d - 1)


def solvable_index_bound(order_n: int) -> int:
    """floor of order_n**1.43: the largest X with X**100 <= order_n**143.
    Raises ValueError when order_n**143 could exceed POWER_MAX_BITS bits."""
    if order_n < 1:
        raise ValueError("solvable_index_bound requires a positive order")
    check_power_bits("solvable_index_bound", 143 * order_n.bit_length())
    return nth_root_floor(order_n ** 143, 100)


def radical_index_check(rat_g: tuple[int, int], index: int) -> bool:
    """Exact verdict on index <= (a/b)**21 for rat_g = (a, b), on
    a**21 >= b**21 * index.  Raises ValueError when a side could exceed
    POWER_MAX_BITS bits."""
    a, b = rat_g
    if not a >= b >= 1:
        raise ValueError("degree ratios are at least 1")
    if index < 1:
        raise ValueError("index must be positive")
    # rat_g >= 1 has the longer numerator, which bounds each side.
    check_power_bits("radical_index_check", 21 * a.bit_length() + index.bit_length())
    return cmp_power(((a, 21),), ((b, 21), (index, 1))) >= 0


def frobenius_example(p: int, m: int) -> DegreeTable:
    """Index-m subgroup of the affine Frobenius group AGL(1, p) containing
    the translations: degrees are m ones and (p-1)/m copies of m, so the
    degree ratio is 1 while the Fitting index m is unbounded over the family.
    Raises ValueError when that list would exceed FROBENIUS_MAX_DEGREES.
    """
    if m <= 1:
        raise ValueError("frobenius_example requires m > 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % m != 0:
        raise ValueError(f"{m} does not divide p - 1 = {p - 1}")
    count = m + (p - 1) // m
    if count > FROBENIUS_MAX_DEGREES:
        raise ValueError(
            f"frobenius_example would list {count} degrees, more than {FROBENIUS_MAX_DEGREES}"
        )
    degrees = (1,) * m + (m,) * ((p - 1) // m)
    return DegreeTable(
        name=f"frobenius(p={p},m={m})",
        degrees=degrees,
        order=p * m,
        fitting_index=m,
    )


def extraspecial_example(p: int, i: int) -> DegreeTable:
    """Extraspecial-group construction with degree support {1, p**i, p**i+1}
    and Fitting index p**i + 1; multiplicities are not determined by the
    construction, so only the support is emitted.  Raises ValueError when
    p**i could exceed POWER_MAX_BITS bits."""
    if i < 1:
        raise ValueError("extraspecial_example requires i >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_power_bits("extraspecial_example", i * p.bit_length())
    m = p ** i
    return DegreeTable(
        name=f"extraspecial(p={p},i={i})",
        degrees=(1, m, m + 1),
        fitting_index=m + 1,
    )
