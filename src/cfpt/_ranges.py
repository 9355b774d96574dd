"""Declared value ranges of the settings classes.

Each settings dataclass declares ``ranges = {field: interval}``, its fields
in declaration order, an interval written ``"[1, inf)"``, ``"(0, 1)"`` or
``"(-inf, inf)"``: a square bracket includes its end, a round one excludes
it. A tuple field's interval bounds each of its elements.
"""

from functools import cache


@cache
def _bounds(interval: str) -> tuple:
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def check_ranges(settings) -> None:
    """Raise ValueError naming the first field of ``settings`` whose value,
    or an element of its tuple value, lies outside its declared interval."""
    for name, interval in settings.ranges.items():
        value = getattr(settings, name)
        lo, hi, closed_lo, closed_hi = _bounds(interval)
        for x in value if isinstance(value, tuple) else (value,):
            # each comparison is False for NaN, so NaN lies in no interval
            if not ((lo <= x if closed_lo else lo < x) and (x <= hi if closed_hi else x < hi)):
                raise ValueError(f"{name} must lie in {interval}, got {value!r}")
