"""Computational kernels: AES-128, FIR filtering, CRC."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import WorkloadError
from repro.workloads.kernels.aes import AES128, aes128_encrypt_block, aes128_self_test
from repro.workloads.kernels.crc import crc16_ccitt
from repro.workloads.kernels.fir import FirFilter, design_lowpass


class TestAes:
    def test_fips197_known_answer(self):
        """Appendix C.1 of FIPS-197."""
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_self_test_passes(self):
        assert aes128_self_test()

    def test_classic_nist_vector(self):
        """The AES-128 vector from the original Rijndael submission."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_block_size_enforced(self):
        cipher = AES128(bytes(16))
        with pytest.raises(WorkloadError):
            cipher.encrypt_block(b"short")

    def test_key_size_enforced(self):
        with pytest.raises(WorkloadError):
            AES128(b"short key")

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_encryption_is_a_permutation(self, key, block):
        """Distinct plaintexts never collide under the same key."""
        cipher = AES128(key)
        other = bytes(block[:-1] + bytes([block[-1] ^ 1]))
        assert cipher.encrypt_block(block) != cipher.encrypt_block(other)


class TestFir:
    def test_lowpass_dc_gain_is_unity(self):
        taps = design_lowpass(num_taps=21, cutoff=0.1)
        assert sum(taps) == pytest.approx(1.0)

    def test_lowpass_validation(self):
        with pytest.raises(WorkloadError):
            design_lowpass(num_taps=0, cutoff=0.1)
        with pytest.raises(WorkloadError):
            design_lowpass(num_taps=9, cutoff=0.7)

    def test_lowpass_attenuates_high_frequency(self):
        taps = design_lowpass(num_taps=31, cutoff=0.05)
        fir = FirFilter(taps)
        n = 256
        low = [math.sin(2 * math.pi * 0.01 * i) for i in range(n)]
        high = [math.sin(2 * math.pi * 0.4 * i) for i in range(n)]
        low_rms = FirFilter(taps).rms(low)
        high_rms = FirFilter(taps).rms(high)
        assert high_rms < 0.2 * low_rms

    def test_streaming_matches_block_processing(self):
        taps = design_lowpass(num_taps=9, cutoff=0.2)
        samples = [float(i % 7) for i in range(50)]
        block = FirFilter(taps).process(samples)
        streaming_filter = FirFilter(taps)
        streaming = [streaming_filter.process_sample(sample) for sample in samples]
        assert block == pytest.approx(streaming)

    def test_reset_clears_state(self):
        fir = FirFilter([1.0 / 3.0] * 3)
        fir.process([1.0, 2.0, 3.0])
        fir.reset()
        assert fir.process_sample(0.0) == 0.0

    def test_empty_taps_rejected(self):
        with pytest.raises(WorkloadError):
            FirFilter([])

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=64))
    def test_moving_average_output_bounded_by_input(self, samples):
        fir = FirFilter([0.2] * 5)  # a 5-tap moving average
        outputs = fir.process(samples)
        bound = max(abs(s) for s in samples) + 1e-9
        assert all(abs(value) <= bound for value in outputs)


class TestCrc:
    def test_known_value(self):
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_data(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_detects_single_bit_flip(self):
        data = b"packet payload"
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        assert crc16_ccitt(data) != crc16_ccitt(flipped)

    @given(st.binary(min_size=0, max_size=64))
    def test_result_fits_sixteen_bits(self, data):
        assert 0 <= crc16_ccitt(data) <= 0xFFFF
