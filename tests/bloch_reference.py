"""The two-level state spectrum at a Bloch radius, the tests' map from
the radius of the closed forms to the spectra the package takes."""

from wignerq import StateSpectrum


def bloch_spectrum(rho):
    """Spectrum ((1 + rho)/2, (1 - rho)/2) of a state at Bloch radius rho."""
    rho = float(rho)
    return StateSpectrum(((1.0 + rho) / 2.0, (1.0 - rho) / 2.0))
