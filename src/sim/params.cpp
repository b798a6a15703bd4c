#include "sim/params.hpp"

#include <limits>

#include "support/log.hpp"

namespace gga {

namespace {

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * The rule a cache geometry breaks, if any: @p kib KiB split over
 * @p parts (L2 banks) must give whole sets of @p assoc lines.
 */
std::optional<std::string>
checkCache(const char* name, std::uint64_t kib, std::uint64_t parts,
           std::uint64_t assoc, std::uint64_t line_bytes)
{
    const std::string n = name;
    if (assoc < 1)
        return n + " associativity must be >= 1";
    if (kib * 1024 > std::numeric_limits<std::uint32_t>::max())
        return n + " size must stay below 4 GiB";
    const std::uint64_t lines = kib * 1024 / line_bytes / parts;
    if (lines < assoc)
        return n + " must hold at least one set";
    if (lines % assoc != 0)
        return n + " geometry must divide evenly";
    return std::nullopt;
}

} // namespace

std::optional<std::string>
SimParams::check() const
{
    if (numSms < 1 || numSms > 15)
        return "numSms must fit the 4x4 mesh minus the CPU node";
    if (!isPow2(warpSize) || warpSize > kMaxWarpLanes)
        return "warp size must be a power of two of at most 32 lanes";
    if (threadBlockSize < 1 || threadBlockSize % warpSize != 0)
        return "thread block size must be a warp multiple";
    // The widest coalesced access, bcBwdPush's rowOff + sigma + delta
    // ranges (33 x 4 B + 2 x 32 x 8 B), spans 41 lines of 16 bytes but
    // 81 lines of 8 bytes, more than an AddrSet holds.
    if (!isPow2(lineBytes) || lineBytes < 16)
        return "line size must be a power of two of at least 16 bytes";
    if (l2Banks != 16)
        return "the 4x4 mesh hosts exactly 16 L2 banks";
    if (maxBlocksPerSm < 1)
        return "need at least one resident block";
    if (relaxedAtomicWindow < 1)
        return "relaxed window must be >= 1";
    if (l1Mshrs < 1)
        return "need at least one L1 MSHR";
    if (storeBufferEntries < 1)
        return "need at least one store buffer entry";
    if (dramChannels < 1)
        return "need at least one DRAM channel";
    if (auto why = checkCache("L1", l1SizeKiB, 1, l1Assoc, lineBytes))
        return why;
    if (auto why = checkCache("L2", l2SizeKiB, l2Banks, l2Assoc, lineBytes))
        return why;
    return std::nullopt;
}

void
SimParams::validate() const
{
    const std::optional<std::string> why = check();
    GGA_ASSERT(!why, "invalid SimParams: ", why.value_or(""));
}

} // namespace gga
