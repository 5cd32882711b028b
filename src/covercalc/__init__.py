"""Exact-arithmetic invariants of branched cyclic covers of knots, with
ribbon-concordance obstruction filters and fibered-predecessor geometry
bounds."""

from .bounds import (
    V3,
    DilatationEstimate,
    FixSample,
    SatelliteProfile,
    cable_genus,
    connected_sum_genus,
    dilatation_upper,
    gromov_aggregate,
    gromov_norm_bound,
    km_volume_bound,
    satellite_euler_check,
    torus_knot_genus,
    winding_bound_check,
)
from .covers import (
    CoverOrder,
    HfkDimBound,
    admissible,
    admissible_primes,
    fox_order,
    hfk_dim_upper,
    is_zp_homology_sphere,
    skp_set,
)
from .knots import (
    AlexanderPoly,
    Knot,
    KnotTable,
    KnotTableError,
    alexander_from_seifert,
    alexander_mul,
    bundled_table,
    load_table,
    load_table_file,
    tilde,
)
from .obstruct import (
    ObstructionReport,
    alexander_divides,
    fibered_genus_check,
    filter_predecessors,
    h1_order_divisibility,
    obstruct,
    skp_containment,
)
from .polynomials import (
    DegreeMultiset,
    IntPoly,
    ModPoly,
    irreducible_factor_degrees,
    resultant,
    resultant_sylvester,
)
from .primes import PrimeSet, is_prime, prime_factors

__version__ = "0.1.0"
