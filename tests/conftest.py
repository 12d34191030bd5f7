import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from synthconf import PanelData

#: ``SYNTHCONF_SOAK=1`` selects the ``soak`` hypothesis profile: each property
#: runs ten times the examples its ``@settings`` names (see :func:`examples`),
#: with no deadline and an example database in a fresh temporary directory,
#: so a soak run replays no draw of an earlier run.  Unset, every property
#: runs as tier-1 does.
if os.environ.get("SYNTHCONF_SOAK") == "1":
    settings.register_profile(
        "soak", max_examples=settings.get_profile("default").max_examples * 10, deadline=None,
        database=DirectoryBasedExampleDatabase(tempfile.mkdtemp(prefix="synthconf-soak-")))
    settings.load_profile("soak")


def examples(n: int) -> int:
    """The example count of a property that runs ``n`` under the default
    profile, scaled as the active profile scales hypothesis' default count."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def small_panel(rng):
    """12 periods, 4 controls, 2 post periods; treated tracks control means."""
    controls = rng.standard_normal((12, 4))
    treated = controls.mean(axis=1) + 0.3 * rng.standard_normal(12)
    return PanelData(np.column_stack([treated, controls]), t0=10)


def random_panel(rng, n_periods=12, n_controls=4, t0=None, noise=0.3):
    controls = rng.standard_normal((n_periods, n_controls))
    treated = controls.mean(axis=1) + noise * rng.standard_normal(n_periods)
    return PanelData(
        np.column_stack([treated, controls]),
        t0=t0 if t0 is not None else n_periods - 2,
    )
