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

from .exact_arith import POWER_MAX_DIGITS, check_power_bits, cmp_power, is_prime
from .exact_arith import nth_root_floor, prime_power
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
    of copies, and the two flags that exempt a factor from the product bound.
    An abelian factor is elementary abelian: its order must be a prime power."""

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
        if is_abelian:
            try:
                reason = "" if prime_power(factor_order) else "is not a prime power"
            except ValueError as exc:
                reason = f"is not decided to be a prime power: {exc}"
            if reason:
                raise ValueError(f'flagged "abelian" (elementary, of order p**k), but its '
                                 f"order {_shown(factor_order)} {reason}")
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
    # value as JSON text, each number literal as the document wrote it, and
    # each list, object and literal cut to 500 characters, so that a message
    # does not grow with the input.
    import json

    if type(value) is list:
        text = f"[{', '.join(map(_shown, value))}]"
    elif type(value) is dict:
        text = f"{{{', '.join(f'{_shown(k)}: {_shown(v)}' for k, v in value.items())}}}"
    else:
        text = value if type(value) is _NumberText else json.dumps(value)
    return text if len(text) <= 500 else f"{text[:500]}..."


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


def series_from_json(text: str, source: str) -> tuple[ChiefFactorDescriptor, ...]:
    """Accepts {"factors": [{"label": ..., "order": "20160",
    "multiplicity": 2, "abelian": false, "psl2": false}, ...]}.

    order (required) and multiplicity (default 1) are each a JSON integer
    or a string of decimal digits, of at most POWER_MAX_DIGITS digits,
    abelian and psl2 (default false) JSON booleans, label (default "") a
    JSON string; any other shape or key raises ValueError naming the factor
    and key, rather than reading "false" as true, truncating 20160.9,
    dropping a mistyped key or spending seconds converting a million digits.
    Text that is not JSON or nests too deeply raises ValueError naming source.
    """
    import json  # only reading a chief series needs json

    try:
        return _series(json.loads(text, parse_int=_parse_int, parse_float=_NumberText))
    except json.JSONDecodeError as exc:
        expected = 'expected a JSON {"factors": [...]} document'
        raise ValueError(f"{source}: {expected}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{source}: the document is nested too deeply to read") from None


_FACTOR_KEYS = ("label", "order", "multiplicity", "abelian", "psl2")


def _series(doc) -> tuple[ChiefFactorDescriptor, ...]:
    if not isinstance(doc, dict) or not isinstance(doc.get("factors"), list):
        raise ValueError('a chief series is a JSON object {"factors": [...]}')
    if not doc["factors"]:
        raise ValueError("a chief series has at least one factor; 'factors' is empty")
    factors = []
    for i, f in enumerate(doc["factors"]):
        where = f"chief factor {i}"
        if not isinstance(f, dict):
            raise ValueError(f"{where} must be a JSON object, got {_shown(f)}")
        unknown = [key for key in f if key not in _FACTOR_KEYS]
        if unknown:
            raise ValueError(f"{where} has the unknown key {_shown(unknown[0])}; a chief "
                             f"factor takes only {', '.join(_FACTOR_KEYS)}")
        if "order" not in f:
            raise ValueError(f"{where} has no 'order'")
        label = f.get("label", "")
        if type(label) is not str:
            raise ValueError(f"{where}: 'label' must be a JSON string, got {_shown(label)}")
        fields = (label, _json_count(f["order"], "order", where),
                  _json_count(f.get("multiplicity", 1), "multiplicity", where),
                  _json_flag(f.get("abelian", False), "abelian", where),
                  _json_flag(f.get("psl2", False), "psl2", where))
        try:
            factors.append(ChiefFactorDescriptor(*fields))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return tuple(factors)


def _refuse_psl2_order(order: int, where: str) -> None:
    """Refuse an order q*(q**2 - 1)/gcd(2, q - 1) = |PSL_2(q)| for a prime
    power q >= 4: rat(PSL_2(q)) <= 3 there, so the product bound cannot count
    the factor.  For q >= 2, (q-1)**3 < q**3 - q < q**3, so q is one more than
    the integer cube root of the order (q even) or of twice the order (q odd),
    and only a q that matches is factored."""
    for q in (nth_root_floor(order, 3) + 1, nth_root_floor(2 * order, 3) + 1):
        if q < 4 or q * (q * q - 1) // math.gcd(2, q - 1) != order:
            continue
        try:
            psl2 = prime_power(q) is not None
        except ValueError as exc:
            raise ValueError(f"{where}: whether its order is that of PSL_2(q), for a q of "
                             f"{q.bit_length()} bits, is not decided: {exc}") from None
        if psl2:
            raise ValueError(f'{where} has the order of PSL_2({q}) but is not flagged "psl2": '
                             "rat(PSL_2(q)) <= 3 for q >= 4, so no product bound counts it")


def rat14_lower_bound(series: tuple[ChiefFactorDescriptor, ...]) -> int:
    """Product of |S|**k over the nonabelian, non-PSL_2 chief factors; the
    caller reads the result P as the certified bound rat(G)**14 >= P.
    Raises ValueError when P could exceed POWER_MAX_BITS bits, and then when
    a factor flagged neither abelian nor psl2 has the order of PSL_2(q),
    q >= 4 (the only orders this checks)."""
    counted = [(i, f) for i, f in enumerate(series) if not f.is_abelian and not f.is_psl2]
    check_power_bits(
        "rat14_lower_bound", sum(f.multiplicity * f.factor_order.bit_length() for _, f in counted)
    )
    for i, f in counted:
        _refuse_psl2_order(f.factor_order, f"chief factor {i}")
    return math.prod(f.factor_order ** f.multiplicity for _, f in counted)


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
