"""Quantify the worst-case loss a malicious expert can impose on a
multiplicative-weights forecaster: exact offline policy evaluation, named
policy constructors, the optimal online adversary by dynamic programming,
multi-expert generalizations, and experiment pipelines.  The package
exports the ``__all__`` of ``core``, ``exact_eval``, ``online_dp`` and
``policies``."""

from .core import *  # noqa: F403
from .exact_eval import *  # noqa: F403
from .online_dp import *  # noqa: F403
from .policies import *  # noqa: F403

__version__ = "0.1.0"
