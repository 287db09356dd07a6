"""Bounds on work, kept apart from the modules that enforce them.

moments and characters.character check the engine's shape cap before
any work. simulate checks the sampler's bound on n before it allocates
a chunk, and the CLI before simulate's exact references, which come
before numpy is imported: an n the sampler refuses costs no numpy.
"""
from __future__ import annotations

from .errors import ValidationError

# The engine visits every shape with at most min(r_max, n) cells under the
# first row. The cap admits all 37338 partitions of 40 and, at large n,
# r_max <= 31 (35471 shapes). There, as subprocesses on a 2-core Xeon VM
# (medians of 5 runs), moments walk --n 2000 --i 2 --c 0 takes 2.2 s and
# 46 MB at 128 bits, commutator-fixed --n 1000 --x 2^500 1.2 s and 42 MB
# and --n 100 --x 5^4,4^5,3^6,2^10,1^22 3.2 s and 46 MB, the slowest
# cases tried.
MAX_ENGINE_SHAPES = 40000

# The commutator and the walk hold rows of n points, so their memory grows
# with n: at this n a pool thread needs about 190 MB for a commutator chunk
# and 100 MB for a walk chunk. The uniform kernel holds no rows.
MAX_ROW_POINTS = 1 << 22


def check_row_points(model: str, n: int) -> None:
    """Reject, before anything is allocated, an n whose rows the model cannot hold."""
    if model != "uniform" and n > MAX_ROW_POINTS:
        raise ValidationError(f"the {model} model holds rows of n points; "
                              f"need n <= {MAX_ROW_POINTS}, got n = {n}")
