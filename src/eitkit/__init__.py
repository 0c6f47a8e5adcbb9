"""eitkit: a 2D electrical impedance tomography difference-imaging toolkit.

Forward simulation on triangular finite-element meshes, sensitivity-based
linearization, ADMM reconstruction with adaptively reweighted anisotropic
total variation (plus plain-TV and ridge baselines), image metrics, and a
deterministic batch pipeline. Each name is imported from the module that
defines it (``eitkit.mesh``, ``eitkit.forward``, ``eitkit.inverse``, ...).
"""

__version__ = "0.1.0"
