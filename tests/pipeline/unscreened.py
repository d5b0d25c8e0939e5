"""The unscreened analysis: the reference the dependence screen is
checked against.

The tier-0 screen always runs in the pipeline; these tests take it out
by replacing :meth:`ScreenPass._compute` with one that returns
:func:`~repro.arraydf.screen.empty_screen`, so every loop goes through
the full predicated analysis.
"""

from contextlib import contextmanager
from unittest import mock

from repro.arraydf.screen import empty_screen
from repro.pipeline.passes import ScreenPass


@contextmanager
def unscreened():
    """Run the pipeline with a screen that settles no loop."""
    with mock.patch.object(
        ScreenPass,
        "_compute",
        staticmethod(lambda engine, unit: empty_screen(unit)),
    ):
        yield
