#include "apps/adpcm.hh"

namespace clumsy::apps
{

namespace
{

/** IMA ADPCM step-size table (89 entries). */
constexpr std::uint16_t kStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,
    17,    19,    21,    23,    25,    28,    31,    34,    37,
    41,    45,    50,    55,    60,    66,    73,    80,    88,
    97,    107,   118,   130,   143,   157,   173,   190,   209,
    230,   253,   279,   307,   337,   371,   408,   449,   494,
    544,   598,   658,   724,   796,   876,   963,   1060,  1166,
    1282,  1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,
    3024,  3327,  3660,  4026,  4428,  4871,  5358,  5894,  6484,
    7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
};

/** IMA ADPCM index-adjustment table. */
constexpr std::int8_t kIndexTable[16] = {
    -1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8,
};

int
clampIndex(int idx)
{
    if (idx < 0)
        return 0;
    if (idx > 88)
        return 88;
    return idx;
}

int
clampSample(int s)
{
    if (s < -32768)
        return -32768;
    if (s > 32767)
        return 32767;
    return s;
}

// The coder's arithmetic wraps at 32 bits, as on the simulated core:
// a faulty trial may read any word as a step size, index adjustment or
// predictor, and signed overflow in C++ is undefined.

int
wrapAdd(int a, int b)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                     static_cast<std::uint32_t>(b));
}

int
wrapSub(int a, int b)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                     static_cast<std::uint32_t>(b));
}

/** One IMA quantization step given the current step size. */
std::uint8_t
quantize(int diff, int step, int &vpdiff)
{
    std::uint8_t code = 0;
    if (diff < 0) {
        code = 8;
        diff = wrapSub(0, diff);
    }
    vpdiff = step >> 3;
    if (diff >= step) {
        code |= 4;
        diff = wrapSub(diff, step);
        vpdiff = wrapAdd(vpdiff, step);
    }
    step >>= 1;
    if (diff >= step) {
        code |= 2;
        diff = wrapSub(diff, step);
        vpdiff = wrapAdd(vpdiff, step);
    }
    step >>= 1;
    if (diff >= step) {
        code |= 1;
        vpdiff = wrapAdd(vpdiff, step);
    }
    if (code & 8)
        vpdiff = wrapSub(0, vpdiff);
    return code;
}

} // namespace

net::TraceConfig
AdpcmApp::traceConfig() const
{
    net::TraceConfig cfg;
    // Voice frames: 20 ms of 16-bit 8 kHz audio is 320 bytes; mix in
    // some wideband frames.
    cfg.minPayload = 320;
    cfg.maxPayload = 960;
    return cfg;
}

void
AdpcmApp::initialize(ClumsyProcessor &proc)
{
    allocStaging(proc);
    proc.setCodeRegion(0, 2048); // tight encode loop
    stepTable_ = proc.alloc(89 * 4, 4);
    for (unsigned i = 0; i < 89; ++i) {
        proc.write32(stepTable_ + i * 4, kStepTable[i]);
        proc.execute(4);
    }
    indexTable_ = proc.alloc(16 * 4, 4);
    for (unsigned i = 0; i < 16; ++i) {
        proc.write32(indexTable_ + i * 4,
                     static_cast<std::uint32_t>(
                         static_cast<std::int32_t>(kIndexTable[i])));
        proc.execute(4);
    }
    state_ = proc.alloc(8, 4);
}

void
AdpcmApp::processPacket(ClumsyProcessor &proc, const net::Packet &pkt,
                        ValueRecorder &rec)
{
    stagePacket(proc, pkt);

    const std::uint32_t len = loadPayloadLen(proc);
    proc.execute(4);
    const SimAddr pcm = pktBase() + kPayloadOff;

    // Reset the coder state for each packet (frame-independent).
    proc.write32(state_ + 0, 0); // predictor
    proc.write32(state_ + 4, 0); // step index
    proc.execute(4);

    int predictor = static_cast<std::int32_t>(proc.read32(state_ + 0));
    int index = static_cast<std::int32_t>(proc.read32(state_ + 4));
    proc.execute(4);

    std::uint64_t streamHash = 1469598103934665603ull;
    ClumsyProcessor::LoopGuard guard(proc, kMaxPayload / 2 + 64,
                                     "adpcm sample loop");
    for (std::uint32_t off = 0; off + 1 < len; off += 2) {
        if (!guard.tick())
            return;
        const auto sample = static_cast<std::int16_t>(
            proc.read16(pcm + off));
        const int step = static_cast<std::int32_t>(
            proc.read32(stepTable_ + static_cast<SimAddr>(
                                         clampIndex(index)) *
                                         4));
        int vpdiff = 0;
        const std::uint8_t code =
            quantize(wrapSub(sample, predictor), step, vpdiff);
        predictor = clampSample(wrapAdd(predictor, vpdiff));
        const int adjust = static_cast<std::int32_t>(
            proc.read32(indexTable_ + (code & 0xf) * 4));
        index = clampIndex(wrapAdd(index, adjust));
        proc.execute(14);
        streamHash = (streamHash ^ code) * 1099511628211ull;
    }
    if (proc.fatalOccurred())
        return;

    proc.write32(state_ + 0, static_cast<std::uint32_t>(predictor));
    proc.write32(state_ + 4, static_cast<std::uint32_t>(index));
    proc.execute(4);

    rec.record("adpcm_stream", streamHash);
    rec.record("adpcm_predictor",
               static_cast<std::uint32_t>(predictor));
    rec.record("adpcm_index", static_cast<std::uint32_t>(index));
}

std::vector<std::uint8_t>
AdpcmApp::referenceEncode(const std::uint8_t *pcm, std::size_t bytes)
{
    std::vector<std::uint8_t> codes;
    codes.reserve(bytes / 2);
    int predictor = 0;
    int index = 0;
    for (std::size_t off = 0; off + 1 < bytes; off += 2) {
        const auto sample = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(pcm[off] |
                                       (pcm[off + 1] << 8)));
        const int step = kStepTable[clampIndex(index)];
        int vpdiff = 0;
        const std::uint8_t code =
            quantize(sample - predictor, step, vpdiff);
        predictor = clampSample(predictor + vpdiff);
        index = clampIndex(index + kIndexTable[code & 0xf]);
        codes.push_back(code);
    }
    return codes;
}

} // namespace clumsy::apps
