"""Train tracks, growth rates, and foliation data for once-punctured surfaces.

The package decides whether a composition of Dehn twists on a once-punctured
orientable surface is pseudo-Anosov, reducible, or of growth one; for the
pseudo-Anosov case it computes the dilatation, the singularity structure of
the invariant foliations, and a hyperbolic picture of the resulting train
track.  See the ``traintrack`` command line tool for the packaged pipeline.
"""

from .errors import (
    CurveNotRealizable,
    GraphStructureError,
    InternalInvariantError,
    IterationLimitExceeded,
    MapCompatibilityError,
    PackingDidNotConverge,
)
from .graphs import (
    EmbeddedGraph,
    GraphSelfMap,
    reverse_path,
    tighten,
)
from .growth import is_irreducible, is_permutation_matrix, spectral_radius
from .twist import (
    compose_word,
    dehn_twist,
    standard_generators,
    standard_rose,
)
from .bh import (
    GrowthOne,
    Reducible,
    TrainTrack,
    bestvina_handel,
    gate_map,
    gates,
)
from .analysis import (
    InfinitesimalPolygon,
    SingularityReport,
    full_report,
    infinitesimal_edges,
    orbit_permutation,
    polygons,
    puncture_index,
)
from .hyplayout import (
    ConeTriangulation,
    DiskLayout,
    PackingRadii,
    circle_pack,
    cone_triangulation,
    develop,
    emit_svg,
)

__version__ = "0.1.0"

__all__ = [
    "ConeTriangulation",
    "CurveNotRealizable",
    "DiskLayout",
    "EmbeddedGraph",
    "GraphSelfMap",
    "GraphStructureError",
    "GrowthOne",
    "InfinitesimalPolygon",
    "InternalInvariantError",
    "IterationLimitExceeded",
    "MapCompatibilityError",
    "PackingDidNotConverge",
    "PackingRadii",
    "Reducible",
    "SingularityReport",
    "TrainTrack",
    "bestvina_handel",
    "circle_pack",
    "compose_word",
    "cone_triangulation",
    "dehn_twist",
    "develop",
    "emit_svg",
    "full_report",
    "gate_map",
    "gates",
    "infinitesimal_edges",
    "is_irreducible",
    "is_permutation_matrix",
    "orbit_permutation",
    "polygons",
    "puncture_index",
    "reverse_path",
    "spectral_radius",
    "standard_generators",
    "standard_rose",
    "tighten",
]
