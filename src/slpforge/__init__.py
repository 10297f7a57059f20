"""slpforge: straight-line program compression over finite Cayley tables."""

from .classify import ClassReport, Config, classify
from .compressors import (
    CompressionReport,
    compress,
    compress_bounded_diameter,
    compress_general,
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
    compress_normal_band,
    compress_permutative,
    minimize_exponents,
)
from .decomposition import BandDecomposition, band_of_groups_decomposition
from .errors import SlpforgeError
from .groups import (
    GroupView,
    QuotientGroup,
    SeriesChain,
    derived_series,
    group_view,
    minimal_generating_subset,
    normal_closure_set,
    quotient_group,
)
from .identities import OmegaTerm, ZERO, satisfies_identity
from .io import read_cay, read_slp, write_cay, write_slp
from .membership import MembershipAnswer, irredundancy, member_certified, member_oracle
from .semigroup import (
    Semigroup,
    closure,
    direct_product,
    ideal_power,
    shortest_word,
    sub_semigroup,
    validate_table,
)
from .sets import ElementSet
from .slp import (
    EvalTrace,
    Slp,
    eliminate_inverses,
    evaluate,
    fast_exp,
    verify,
)

__version__ = "0.1.0"
