"""Two-stage multiclass transfer-learning laboratory.

Synthetic multinomial-logistic tasks, diversity-regularized two-stage
ERM, Gaussian-complexity and excess-risk diagnostics, and a sweep
harness that verifies the predicted risk scaling on desk-scale data.
"""

__version__ = "0.1.0"
