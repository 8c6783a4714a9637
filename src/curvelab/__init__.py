"""curvelab: growth analysis of holomorphic curves C -> P^n that omit the n
coordinate hyperplanes, with characteristic computation by two routes, locus
tracing of the reduced max, disc potential-theory harnesses, and the explicit
growth-bound pipeline."""

from .polynomials import ComplexPoly
from .curves import (
    CurveComponent,
    HolomorphicCurve,
    estimate_growth,
    log_norm,
    spherical_derivative_of,
)
from .characteristic import (
    CharacteristicTable,
    build_table,
    characteristic_area,
    characteristic_jensen,
    circle_mean_max_re,
    counting_function,
    reduced_characteristic,
    reduced_characteristic_polys,
)
from .locus import (
    LocusBranch,
    LocusSummary,
    branch_asymptotics,
    count_branch_bound,
    regularity_radius,
    riesz_of_max,
    tail_exponents,
    trace_branches,
)
from .lemmas import (
    DiscHarmonic,
    DiscSuperharmonic,
    green_boundary_min,
    green_boundary_normal,
    green_disc,
    harness_report,
    random_lemma_family,
    verify_lemma1,
    verify_lemma2,
)
from .pipeline import (
    BoundReport,
    harvest_tie_points,
    prop1_check,
    prop2_margin,
    prop3_check,
    prop4_bound,
    theorem_constant,
    verify_theorem,
)
from .specfile import load_curve, parse_curve

__all__ = [name for name in dir() if not name.startswith("_")]
