"""eitkit: a 2D electrical impedance tomography difference-imaging toolkit.

Forward simulation on triangular finite-element meshes, sensitivity-based
linearization, ADMM reconstruction with adaptively reweighted anisotropic
total variation (plus plain-TV and ridge baselines), image metrics, and a
deterministic batch pipeline.
"""

from .mesh import (
    TriMesh,
    ElectrodeLayout,
    generate_disk_mesh,
    place_electrodes,
    build_difference_operators,
    rasterize,
    raster_extent,
    raster_index,
    raster_image,
    save_mesh,
    save_element_values,
    load_element_values,
)
from .phantom import (
    Inclusion,
    PhantomSpec,
    lung_model,
    assign_conductivity,
    save_phantom,
    load_phantom,
)
from .forward import (
    LINEARIZATION_SIGN,
    SolverError,
    pattern_pairs,
    assemble_stiffness,
    solve_potentials,
    simulate_frame,
    sensitivity_matrix,
    signed_difference,
    add_noise,
    save_frames,
    load_frames,
)
from .inverse import (
    ReconResult,
    XUpdateSolver,
    soft_threshold,
    group_shrink,
    nwatv_weights,
    reconstruct_block,
    reconstruct_nwatv,
    reconstruct_fotv,
    reconstruct_tv_isotropic,
    reconstruct_tikhonov,
)
from .metrics import (
    relative_error,
    psnr,
    write_image_pgm,
)
from .pipeline import ConfigError, PipelineConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "TriMesh",
    "ElectrodeLayout",
    "generate_disk_mesh",
    "place_electrodes",
    "build_difference_operators",
    "rasterize",
    "raster_extent",
    "raster_index",
    "raster_image",
    "save_mesh",
    "save_element_values",
    "load_element_values",
    "Inclusion",
    "PhantomSpec",
    "lung_model",
    "assign_conductivity",
    "save_phantom",
    "load_phantom",
    "LINEARIZATION_SIGN",
    "SolverError",
    "pattern_pairs",
    "assemble_stiffness",
    "solve_potentials",
    "simulate_frame",
    "sensitivity_matrix",
    "signed_difference",
    "add_noise",
    "save_frames",
    "load_frames",
    "ReconResult",
    "XUpdateSolver",
    "soft_threshold",
    "group_shrink",
    "nwatv_weights",
    "reconstruct_block",
    "reconstruct_nwatv",
    "reconstruct_fotv",
    "reconstruct_tv_isotropic",
    "reconstruct_tikhonov",
    "relative_error",
    "psnr",
    "write_image_pgm",
    "ConfigError",
    "PipelineConfig",
    "load_config",
    "__version__",
]
