"""Pure-Python AES-128 block encryption (the Data Encryption kernel).

This is a straightforward, table-free implementation of FIPS-197 AES-128
encryption.  It favours clarity over speed — the simulator charges the
energy cost of each block through the MCU power model, so the Python
implementation only needs to be *correct*, which is verified against the
FIPS-197 appendix C known-answer test in the unit suite.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import WorkloadError

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

_BLOCK_SIZE = 16
_KEY_SIZE = 16
_ROUNDS = 10


def _xtime(value: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _sub_bytes(state: List[int]) -> None:
    for index, value in enumerate(state):
        state[index] = _SBOX[value]


def _shift_rows(state: List[int]) -> None:
    # State is column-major: state[4*c + r].
    for row in range(1, 4):
        column_values = [state[4 * column + row] for column in range(4)]
        rotated = column_values[row:] + column_values[:row]
        for column in range(4):
            state[4 * column + row] = rotated[column]


def _mix_columns(state: List[int]) -> None:
    for column in range(4):
        offset = 4 * column
        a = state[offset : offset + 4]
        total = a[0] ^ a[1] ^ a[2] ^ a[3]
        original_first = a[0]
        state[offset + 0] = a[0] ^ total ^ _xtime(a[0] ^ a[1])
        state[offset + 1] = a[1] ^ total ^ _xtime(a[1] ^ a[2])
        state[offset + 2] = a[2] ^ total ^ _xtime(a[2] ^ a[3])
        state[offset + 3] = a[3] ^ total ^ _xtime(a[3] ^ original_first)


def _add_round_key(state: List[int], round_key: Sequence[int]) -> None:
    for index in range(_BLOCK_SIZE):
        state[index] ^= round_key[index]


def _expand_key(key: bytes) -> List[List[int]]:
    """Expand a 16-byte key into 11 round keys of 16 bytes each."""
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (_ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [_SBOX[b] for b in word]
            word[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    round_keys: List[List[int]] = []
    for round_index in range(_ROUNDS + 1):
        key_bytes: List[int] = []
        for word in words[4 * round_index : 4 * round_index + 4]:
            key_bytes.extend(word)
        round_keys.append(key_bytes)
    return round_keys


class AES128:
    """AES-128 encryption context with a pre-expanded key schedule."""

    def __init__(self, key: bytes) -> None:
        if len(key) != _KEY_SIZE:
            raise WorkloadError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._round_keys = _expand_key(key)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(plaintext) != _BLOCK_SIZE:
            raise WorkloadError(
                f"AES block must be 16 bytes, got {len(plaintext)}"
            )
        state = list(plaintext)
        _add_round_key(state, self._round_keys[0])
        for round_index in range(1, _ROUNDS):
            _sub_bytes(state)
            _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[round_index])
        _sub_bytes(state)
        _shift_rows(state)
        _add_round_key(state, self._round_keys[_ROUNDS])
        return bytes(state)


def aes128_encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """One-shot block encryption convenience wrapper."""
    return AES128(key).encrypt_block(plaintext)


def aes128_self_test() -> bool:
    """FIPS-197 appendix C.1 known-answer test.

    Returns True when the implementation reproduces the reference
    ciphertext; the DE workload runs this as its per-boot sanity check.
    """
    key = bytes(range(16))
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    return aes128_encrypt_block(key, plaintext) == expected
