"""chardeg: exact character-degree data and inequality certification for
finite simple groups.

Hook-length degrees for partitions, binomial-quotient orders and unipotent
degrees for the Lie-type families, ingestion of external degree tables, and
structural bound calculators.  Every verdict is decided in exact integer
arithmetic.
"""

from .exact_arith import (
    IntPolynomial,
    Ordering,
    RationalInterval,
    cmp_power,
    const_interval,
    cyclotomic,
    factorial,
    nth_root_floor,
)
from .partitions import (
    HookData,
    Partition,
    degree,
    enumerate_gamma,
    hooks,
    parse_partition,
    partitions_of,
)
from .alternating import (
    WitnessReport,
    check_constant,
    check_factorial_lower,
    check_growth,
    check_hook_upper,
    check_witness,
    gamma_index,
    square_fix,
)
from .lie_type import (
    CharPair,
    Exclusion,
    Family,
    GroupSpec,
    InvalidSpec,
    SweepRecord,
    beta_degree,
    check_point,
    make_spec,
    order,
    steinberg_degree,
    sweep,
    validate,
)
from .degree_data import (
    DegreeTable,
    PairCheck,
    TableError,
    check_exponent_bound,
    check_extendible_pair,
    load_dir,
    parse_table,
    parse_tables,
    rat,
)
from .structure_bounds import (
    ChiefFactorDescriptor,
    ChiefSeries,
    extraspecial_example,
    frobenius_example,
    maroti_bound,
    quotient_power_check,
    radical_index_check,
    rat14_lower_bound,
    series_from_json,
    solvable_index_bound,
)

__version__ = "0.1.0"
