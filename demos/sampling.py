"""Minibatch samplers over an observed index set: uniform cell draws
hit every observed cell at its fair share, and the row-then-column
sampler picks rows in proportion to how often they are observed.

Run: python3 demos/sampling.py
"""

import numpy as np

from exchtensor.sampling import (
    conditional_subsample,
    row_marginal,
    uniform_subsample,
)
from exchtensor.sparse import SparseExchangeableTensor

rng = np.random.default_rng(0)

# 10x10 matrix with 60 observed cells
picks = rng.choice(100, size=60, replace=False)
indices = np.stack(np.unravel_index(picks, (10, 10)), axis=1)
t = SparseExchangeableTensor((10, 10), indices, np.zeros((60, 1)))

# uniform sampler: across many draws of 15-cell batches, each observed
# cell should be included in 15/60 = 25% of batches
trials = 4000
counts = np.zeros(60)
for k in range(trials):
    batch = uniform_subsample(t, batch_size=15, seed=k)
    counts[batch.positions] += 1
freq = counts / trials
print(f"uniform: inclusion frequency {freq.min():.3f}..{freq.max():.3f} "
      f"around the exact 0.250")

# conditional sampler: an unbalanced matrix where row n holds n+1
# observed cells; the first-stage row draw should favor heavy rows in
# proportion to their observation count
rows = np.repeat(np.arange(4), np.arange(1, 5))
cols = np.concatenate([np.arange(n + 1) for n in range(4)])
skew = SparseExchangeableTensor(
    (4, 10), np.column_stack([rows, cols]), np.zeros((10, 1))
)
picked = np.zeros(4)
for k in range(trials):
    batch = conditional_subsample(skew, target_rows=1, target_cols=1, seed=k)
    picked[batch.indices[0, 0]] += 1
print("conditional first-stage row frequencies vs observation shares:")
for n in range(4):
    print(f"  row {n}: drawn {picked[n] / trials:.3f}, "
          f"share {row_marginal(skew)[n]:.3f}")

# the induced submatrix keeps every observed cell under the selection
batch = conditional_subsample(t, target_rows=4, target_cols=4, seed=1)
sel_rows = np.unique(batch.indices[:, 0])
sel_cols = np.unique(batch.indices[:, 1])
inside = np.isin(t.indices[:, 0], sel_rows) & np.isin(t.indices[:, 1], sel_cols)
print(f"conditional batch: {batch.indices.shape[0]} cells = all "
      f"{inside.sum()} observed cells in the selected "
      f"{sel_rows.size}x{sel_cols.size} block")
