"""epkit: exceptional-point spectra, parameter maps and encircling dynamics.

Subpackage map:
    linalg    dense complex eigendecomposition and coalescence diagnostics
    models    generator catalog (Hamiltonians, Lindblad/Liouvillian forms)
    contour   marching squares and sign bisection for exceptional and fold lines
    spectra   parameter-plane scans, exceptional lines and points
    dynamics  trajectory integration, sheet tracking, chirality reports
    rydberg   nonlinear mean-field steady states, folds, cusp, encircling
    cli       config-driven command-line frontend with deterministic output
"""

__version__ = "0.1.0"
