"""Secrecy-capacity maximization for jammer-assisted MIMO links.

Clustered geometric channels, analog (constant-amplitude) beamforming, and
projected gradient ascent over precoders and combiners, with fixed-power
and power-adaptive variants plus benchmark diagnostics.
"""

__version__ = "0.1.0"
