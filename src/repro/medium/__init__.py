"""The shared wireless medium.

One :class:`~repro.medium.channel.Medium` instance models the ether all
simulated radios share: it tracks in-flight transmissions, decides which
listeners demodulate which frames (sensitivity, half-duplex deafness,
co-channel collisions with capture effect, inter-SF quasi-orthogonality),
and at frame end hands each listener that heard a frame its
:class:`~repro.radio.frames.ReceivedFrame`.
"""

from repro.medium.channel import Medium, Transmission, DropReason

__all__ = ["Medium", "Transmission", "DropReason"]
