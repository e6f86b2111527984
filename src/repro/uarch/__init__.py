"""Out-of-order timing simulation: the paper's Table 1 machine."""
