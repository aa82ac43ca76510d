"""Presentation-by-conjugation decisions for extended affine Weyl groups."""

__version__ = "0.1.0"

from .semilattice import (
    Semilattice,
    enumerate_semilattices,
    make_semilattice,
)
from .rootsystem import (
    FiniteRoots,
    Root,
    RootClass,
    RootSystemSpec,
    classify_vector,
    finite_roots,
    generating_roots,
    make_spec,
    spec_from_json,
    spec_to_json,
)
from .integral import (
    DecisionReport,
    closed_form_exponent,
    construct_nonminimal,
    count_collections,
    decide_by_reduction,
    essential_family,
    is_integral,
    minimality_screen,
    semilattice_collection_count,
)
from .center import (
    CenterStructure,
    center_presentation,
    center_structure,
    kernel_exponents,
    smith_normal_form,
)
from .weylgroup import (
    central_image,
    orbit_cover,
    reflection,
    translation,
    verify_center_freeness,
    verify_structure_identities,
    verify_translation_identities,
)

__all__ = [
    "__version__",
    "Semilattice",
    "enumerate_semilattices",
    "make_semilattice",
    "FiniteRoots",
    "Root",
    "RootClass",
    "RootSystemSpec",
    "classify_vector",
    "finite_roots",
    "generating_roots",
    "make_spec",
    "spec_from_json",
    "spec_to_json",
    "DecisionReport",
    "closed_form_exponent",
    "construct_nonminimal",
    "count_collections",
    "decide_by_reduction",
    "essential_family",
    "is_integral",
    "minimality_screen",
    "semilattice_collection_count",
    "CenterStructure",
    "center_presentation",
    "center_structure",
    "kernel_exponents",
    "smith_normal_form",
    "central_image",
    "orbit_cover",
    "reflection",
    "translation",
    "verify_center_freeness",
    "verify_structure_identities",
    "verify_translation_identities",
]
