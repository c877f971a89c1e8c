"""Exact cosine and sine of a rational angle, and the angular distance of
two angles, kept for the tests.

Nothing in `roundreach` needs them: the kernel reads Niven's rational
parts in integers and the deciders compare angles in grid steps.  They
moved here from `roundreach.numerics` (`angle_cos`, `angle_sin`) and
`Angle.distance_to` with their tests, and `rational_rotator.RationalRotator`
builds its exact reference rotation on them.  Only the tests import this
module.
"""

from __future__ import annotations

from roundreach.numerics import Angle, CycloNum, embed_polar


def angle_cos(angle: Angle, order: int) -> CycloNum:
    z = embed_polar(1, angle, order)
    return (z + z.conjugate()) / 2


def angle_sin(angle: Angle, order: int) -> CycloNum:
    return embed_polar(1, angle, order).imag_part()


def angle_distance(a: Angle, b: Angle) -> Angle:
    """Angular distance in [0, pi]."""
    d = (a.pi_multiple - b.pi_multiple) % 2
    return Angle(min(d, 2 - d))
