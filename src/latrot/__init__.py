"""Discretized rotations of the integer lattice.

Exact scalar arithmetic, angle classification, floor/round/trunc
discretized rotation maps, collision and hole censuses with growth-rate
fitting, fractional-part solution counting with Pythagorean residue
machinery, and orbit cycle detection.
"""

from .errors import (
    CapExceeded,
    DegenerateCounts,
    HypothesisViolated,
    InvalidSpec,
    LatrotError,
    UndecidableAtPrecision,
)
from .exactnum import (
    HighPrec,
    QuadIrr,
    Rational,
    Scalar,
    as_highprec,
    compare,
    default_precision_bits,
    floor_exact,
    format_scalar,
    frac_in,
    frac_part,
    highprec,
    parse_scalar,
    quad,
    rational,
)
from .angle import (
    AngleContext,
    CardinalMultiple,
    GenericIndependent,
    LinearRelation,
    Numeric,
    Orientation,
    PiMultiple,
    Pythagorean,
    QuadField,
    RationalPythagorean,
    UnknownNumeric,
    classify,
    context_from_text,
    context_to_json,
    parse_angle,
    resolve,
)
from .rotation import (
    LatticePoint,
    RealPoint,
    RoundingMode,
    cell_corners,
    discrete_rotate,
    quantize,
    rotate,
)
from .census import (
    CensusKind,
    CensusReport,
    GrowthFit,
    Method,
    brute_force_census,
    collision_census,
    growth_fit,
    hole_census,
)
from .udist import (
    InequalityBox,
    Parity,
    PythTriple,
    count_solutions,
    count_solutions_residue,
    gen_primitive_triples,
    residue_d1,
    verify_case3_congruences,
)
from .orbits import (
    OrbitCaps,
    OrbitRecord,
    OrbitStatus,
    SweepSummary,
    detect_cycle,
    orbit_path,
    orbit_sweep,
    period8_candidates,
    verify_helper_identities,
    verify_period8,
)

__version__ = "0.1.0"
