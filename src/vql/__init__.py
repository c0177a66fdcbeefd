"""Visual query localization toolkit.

A numpy library implementing the numerical machinery of memory-driven
query localization: a steepest-descent meta-learned segmentation filter, a
Gauss-Newton discriminative correlation filter with a hinge residual, dual
episodic memory banks, branch fusion with temporal localization, and a
multi-view 3D back-projection and aggregation stage, plus a synthetic
scenario harness with its own metrics and CLI.

Import the modules themselves (``from vql import pipeline, fileio``); each
module's ``__all__`` is the one list of its public names.
"""

__version__ = "0.1.0"
