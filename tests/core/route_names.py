"""The optimised window, answering in the reference window's words.

:class:`~repro.stream.window.SlidingWindow` routes an edge to an integer
``ROUTE_*`` code and names departure :meth:`~SlidingWindow.expire`;
``LegacySlidingWindow`` (:mod:`reference_matcher`) answers
``"internal"`` / ``"external"`` / ``"departed"`` from ``add_edge`` and
departs through ``remove``.  The matcher tests drive both windows
through this one vocabulary, so it lives here, beside the reference.
Imported by bare module name, like :mod:`reference_matcher`.
"""

from repro.stream.window import (
    ROUTE_DEPARTED,
    ROUTE_EXTERNAL,
    ROUTE_INTERNAL,
    SlidingWindow,
)

ROUTE_NAMES = {
    ROUTE_INTERNAL: "internal",
    ROUTE_EXTERNAL: "external",
    ROUTE_DEPARTED: "departed",
}


class NamedRouteWindow(SlidingWindow):
    """A :class:`SlidingWindow` with the reference window's ``add_edge``
    and ``remove``."""

    def add_edge(self, u, v):
        """:meth:`SlidingWindow.route_edge`, its code named."""
        return ROUTE_NAMES[self.route_edge(u, v)]

    remove = SlidingWindow.expire
