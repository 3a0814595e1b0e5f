"""Deep graph propagation with soft covariance whitening, residual and fuzzy
skip connections, and a label-smoothing curriculum, verified against dense
brute-force oracles at desk scale."""
