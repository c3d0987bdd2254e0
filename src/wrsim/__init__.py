"""Monte Carlo toolkit for the multi-type continuum Widom-Rowlinson model
with random radii and its continuum random cluster (Fortuin-Kasteleyn)
representation."""

__version__ = "0.1.0"

from .geometry import Window, Configuration
from .distributions import (DiracRadius, UniformRadius, ExponentialRadius,
                            ParetoRadius, AtomMixtureRadius,
                            classify_integrability, check_coverage_condition,
                            q_tilde_transform, law_from_spec)
from .components import (connected_components, crossing_exists,
                         covered_fraction, color_census)
from .sampling import (MultiTypeConfiguration, BoundaryCondition, GibbsParams,
                       sample_poisson, sample_multitype_poisson, is_authorized,
                       fk_coloring, build_boundary,
                       WidomRowlinsonChain, RandomClusterChain,
                       effective_sample_size)
from .analysis import (EntropyBoundInputs, phi_m, psi_eval,
                       mono_entropy_lower_bound, entropy_upper_estimate,
                       small_z_threshold, domination_test)
from .slab import (SlabParams, transformed_radius, n_cc_right, right_covered,
                   estimate_p, geometric_moment, segment_model_1d,
                   crcm_ncc_moment_check)
