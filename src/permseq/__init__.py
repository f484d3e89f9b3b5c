"""Pattern-avoiding permutations refined by inversion count: exact
enumeration, limit sequences, explicit injections, and the partition
bijections behind them."""

__version__ = "0.1.0"

from .perms import (  # noqa: F401
    Perm,
    avoids,
    contains,
    complement,
    components,
    delete,
    direct_sum,
    first_split,
    format_perm,
    from_lehmer,
    identity,
    inv_count,
    inverse,
    is_decomposable,
    lehmer_code,
    parse_basis,
    parse_perm,
    pattern_basis,
    reverse,
    reverse_complement,
    skew_sum,
    standardize,
)
from .enumeration import (  # noqa: F401
    CountTable,
    LimitReport,
    count_table,
    diagonal_limit,
    generate_avoiders,
    has_limit_sequence,
    limit_report,
    monotonicity_scan,
    row_differences,
    second_differences,
    symmetry_representative,
)
