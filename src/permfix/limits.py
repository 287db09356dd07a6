"""The sampler's bound on n, kept apart from numpy.

permfix.simulate checks it before it allocates a chunk, and the CLI
checks it before it computes simulate's exact references, which come
before numpy is imported: an n the sampler refuses costs no numpy.
"""
from __future__ import annotations

from .errors import ValidationError

# The commutator and the walk hold rows of n points, so their memory grows
# with n: at this n a pool thread needs about 190 MB for a commutator chunk
# and 100 MB for a walk chunk. The uniform kernel holds no rows.
MAX_ROW_POINTS = 1 << 22


def check_row_points(model: str, n: int) -> None:
    """Reject, before anything is allocated, an n whose rows the model cannot hold."""
    if model != "uniform" and n > MAX_ROW_POINTS:
        raise ValidationError(f"the {model} model holds rows of n points; "
                              f"need n <= {MAX_ROW_POINTS}, got n = {n}")
