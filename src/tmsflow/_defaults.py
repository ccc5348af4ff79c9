"""Default parameters of the fit, the key and the tomography, in a module
of their own so that the CLI's settings table reads them without loading
the modules that use them (each is importable from its module, too)."""

DEFAULT_WEIGHTS = (0.5, 0.5, 1.0)
DEFAULT_COUPLING = 0.01  # -20 dB directional coupler
DEFAULT_INITIAL = (0.0, 1.0)
DEFAULT_CHI = (0.05, 0.56)  # amplifier noise chi1, chi2 of synthetic records
DEFAULT_CLONER_COUPLING = 1e-4
DEFAULT_THRESHOLD = 5.0  # standard errors
