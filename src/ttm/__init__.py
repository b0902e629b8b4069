"""Train track maps, graph towers, and shift-invariant measures.

The pipeline: a substitution or a train track self-map of a graph yields a
stationary graph tower; non-negative eigenvectors of its transition matrix
with eigenvalue above one yield weight towers (edge weights plus turn
weights subject to switch and compatibility conditions); a weight tower
evaluates to a Kolmogorov function, the cylinder-value form of a shift- and
flip-invariant measure.  Everything numerical is certified interval
arithmetic over exact characteristic-polynomial roots.
"""

from .errors import (
    GraphError, IncompleteTableError, MapError, ParseError, PathError,
    PreconditionError, SpectralError, TTMError,
)
from .graphs import (
    Graph, inverse, is_reduced, make_turn, reverse_path, rose, turns_of,
)
from .maps import (
    DirectionAnalysis, GraphMap, compose, identity_map, is_expanding,
    is_homotopy_equivalence, is_train_track, used_language,
)
from .measures import (
    FrequencyOracle, KolmogorovFunction, MeasureTable, eigen_measures,
    eigenvector_measure, frequency_oracle, image_measure, recover_weights,
    verify_eigen_measure, verify_kolmogorov,
)
from .spectra import (
    BlockForm, Eigenpair, Spectrum, block_form, distinguished_eigenvectors,
    is_primitive, pf_eigenpair, spectrum,
)
from .substitutions import Substitution, ergodic_measures
from .towers import (
    StationaryTower, WeightTower, repetition_bound, weight_tower_from_vector,
)

__version__ = "0.1.0"
