"""Entanglement distribution over memory-equipped satellite optical links.

The package models a satellite that emits trains of photons entangled with
on-board memories toward ground stations, analytically (closed-form rates,
drift correction, two-leg memory allocation) and with a discrete-event
Monte-Carlo simulator whose per-bin counts are cross-validated against the
model's predicted moments.

The public API is what the modules below list in their ``__all__``.
"""

from . import analytics, constants, errors, experiment, passes, sim, validation
from .analytics import *  # noqa: F403
from .constants import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiment import *  # noqa: F403
from .passes import *  # noqa: F403
from .sim import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analytics, constants, errors, experiment, passes, sim, validation)
    for name in module.__all__
]
