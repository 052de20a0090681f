"""Web-page and GOP payload containers and their bit-stream layout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_PFRAMES = 14


def bytes_to_bits(values: np.ndarray) -> np.ndarray:
    """uint8 values -> bits, MSB first, flattened."""
    return np.unpackbits(np.asarray(values, dtype=np.uint8).reshape(-1))


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    return np.packbits(np.asarray(bits, dtype=np.uint8))


@dataclass(eq=False)
class WebPagePayload:
    """Text bits plus grayscale pixels packed ratio-wise into codewords.

    ``ratio`` = (text bits, image bits) per codeword. Text and pixel streams
    are zero-padded so both fill the same whole number of codewords.
    """

    text_bits: np.ndarray  # (T,) uint8
    pixels: np.ndarray  # flattened uint8
    ratio: tuple
    image_shape: tuple | None = None  # for quality scoring of received pixels

    def __post_init__(self):
        self.text_bits = np.asarray(self.text_bits, dtype=np.uint8).reshape(-1)
        self.pixels = np.asarray(self.pixels, dtype=np.uint8).reshape(-1)
        t, i = self.ratio
        if t < 0 or i < 0 or t + i <= 0:
            raise ValueError(f"bad ratio {self.ratio}")
        if i % 8:
            raise ValueError("image bits per codeword must be a whole number of pixel bits")

    @property
    def n_codewords(self) -> int:
        t, i = self.ratio
        need_t = -(-len(self.text_bits) // t) if t else 0
        need_i = -(-(len(self.pixels) * 8) // i) if i else 0
        return max(need_t, need_i, 1)

    def streams(self):
        """(text bits, pixel bits) padded to exactly n_codewords chunks."""
        t, i = self.ratio
        n = self.n_codewords
        text = np.zeros(n * t, dtype=np.uint8)
        text[: len(self.text_bits)] = self.text_bits
        pix = np.zeros(n * i, dtype=np.uint8)
        raw = bytes_to_bits(self.pixels)
        pix[: len(raw)] = raw
        return text, pix

    def with_received(self, text_bits: np.ndarray, pixel_bits: np.ndarray) -> "WebPagePayload":
        text = text_bits[: len(self.text_bits)].astype(np.uint8)
        pix = bits_to_bytes(pixel_bits)[: len(self.pixels)]
        return WebPagePayload(text, pix, self.ratio, self.image_shape)

    def image(self) -> np.ndarray:
        if self.image_shape is None:
            raise ValueError("payload carries no image shape")
        n = int(np.prod(self.image_shape))
        return self.pixels[:n].reshape(self.image_shape)


def make_webpage(
    ratio: tuple,
    n_codewords: int | None = None,
    rng: np.random.Generator | None = None,
    image: np.ndarray | None = None,
) -> WebPagePayload:
    """Random-text page; pixels come from ``image`` or are drawn at random.

    Without an image the page spans ``n_codewords`` codewords; with one it
    spans however many codewords the image needs at the given ratio.
    """
    t, i = ratio
    if image is not None:
        image = np.asarray(image, dtype=np.uint8)
        pixels = image.reshape(-1)
        n_cw = -(-(len(pixels) * 8) // i)
        shape = image.shape
    else:
        if n_codewords is None:
            raise ValueError("need n_codewords when no image is given")
        n_cw = n_codewords
        pixels = rng.integers(0, 256, n_cw * i // 8, dtype=np.uint8) if i else np.zeros(0, np.uint8)
        shape = None
    text = rng.integers(0, 2, n_cw * t, dtype=np.uint8) if t else np.zeros(0, np.uint8)
    return WebPagePayload(text, pixels, ratio, shape)


@dataclass(eq=False)
class GopPayload:
    """One I-frame plus difference P-frames, all with equal dimensions.

    P-frame pixels hold the frame difference clipped to [-128, 127] and
    stored offset-128, so each travels as one byte; reconstruction adds the
    differences cumulatively and clamps to [0, 255].
    """

    i_frame: np.ndarray  # (H, W) uint8
    p_frames: list  # of (H, W) uint8 offset-128 difference frames

    def __post_init__(self):
        self.i_frame = np.asarray(self.i_frame, dtype=np.uint8)
        self.p_frames = [np.asarray(f, dtype=np.uint8) for f in self.p_frames]
        for f in self.p_frames:
            if f.shape != self.i_frame.shape:
                raise ValueError("all GOP frames must share dimensions")

    @classmethod
    def from_frames(cls, frames) -> "GopPayload":
        frames = [np.asarray(f, dtype=np.int16) for f in frames]
        diffs = []
        for prev, cur in zip(frames[:-1], frames[1:]):
            diffs.append((np.clip(cur - prev, -128, 127) + 128).astype(np.uint8))
        return cls(frames[0].astype(np.uint8), diffs)

    @property
    def n_pframes(self) -> int:
        return len(self.p_frames)

    @property
    def frame_bits(self) -> int:
        return int(self.i_frame.size) * 8

    def frame_streams(self):
        """Bit stream per frame: index 0 is the I-frame, then P1..Pn."""
        return [bytes_to_bits(self.i_frame)] + [bytes_to_bits(f) for f in self.p_frames]

    def with_received(self, streams) -> "GopPayload":
        shape = self.i_frame.shape
        nbits = self.frame_bits
        frames = [bits_to_bytes(s[:nbits]).reshape(shape) for s in streams]
        return GopPayload(frames[0], frames[1:])

    def reconstruct_frames(self):
        """Decoded full frames: I-frame then cumulative clamped differences."""
        out = [self.i_frame.copy()]
        cur = self.i_frame.astype(np.int16)
        for diff in self.p_frames:
            cur = np.clip(cur + diff.astype(np.int16) - 128, 0, 255)
            out.append(cur.astype(np.uint8))
        return out
