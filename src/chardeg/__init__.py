"""chardeg: exact character-degree data and inequality certification for
finite simple groups.

Hook-length degrees for partitions, binomial-quotient orders and unipotent
degrees for the Lie-type families, ingestion of external degree tables, and
structural bound calculators.  Every verdict is decided in exact integer
arithmetic.  The root re-exports nothing; import the submodules.
"""

__version__ = "0.1.0"
