#include "sim/cache.hpp"

#include "support/log.hpp"

namespace gga {

namespace {

std::uint32_t
setCount(std::uint32_t size_bytes, std::uint32_t assoc,
         std::uint32_t line_bytes)
{
    GGA_ASSERT(assoc > 0 && line_bytes > 0, "empty cache geometry");
    const std::uint32_t sets = size_bytes / line_bytes / assoc;
    GGA_ASSERT(sets > 0, "cache too small for its associativity");
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes)
    : numSets_(setCount(size_bytes, assoc, line_bytes)),
      assoc_(assoc),
      setIndex_(numSets_, log2Pow2(line_bytes)),
      tags_(static_cast<std::size_t>(numSets_) * assoc, kNoLine),
      states_(tags_.size(), LineState::Invalid),
      lastUse_(tags_.size(), 0)
{
    GGA_ASSERT(line_bytes > kNoLine, "lines must be wider than one byte");
}

LineState
SetAssocCache::lookup(Addr line)
{
    const LineState* st = touch(line);
    return st ? *st : LineState::Invalid;
}

LineState*
SetAssocCache::touch(Addr line)
{
    const std::size_t base = setBase(line);
    const Addr* tags = &tags_[base];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags[w] == line) {
            lastUse_[base + w] = ++useClock_;
            return &states_[base + w];
        }
    }
    return nullptr;
}

LineState*
SetAssocCache::find(Addr line)
{
    const std::size_t base = setBase(line);
    const Addr* tags = &tags_[base];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags[w] == line)
            return &states_[base + w];
    }
    return nullptr;
}

SetAssocCache::Eviction
SetAssocCache::insert(Addr line, LineState st)
{
    GGA_ASSERT(st != LineState::Invalid, "cannot insert an invalid line");
    const std::size_t base = setBase(line);
    const Addr* tags = &tags_[base];
    const std::uint64_t* last_use = &lastUse_[base];
    // Victim: the first invalid way, else the least recently used (the
    // earliest way on a tie).
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        GGA_ASSERT(tags[w] != line,
                   "inserting a line that is already present");
        if (tags[w] == kNoLine) {
            victim = w;
            break;
        }
        if (last_use[w] < last_use[victim])
            victim = w;
    }
    const std::size_t v = base + victim;
    Eviction ev;
    if (tags_[v] != kNoLine) {
        ev.line = tags_[v];
        ev.state = states_[v];
    }
    tags_[v] = line;
    states_[v] = st;
    lastUse_[v] = ++useClock_;
    return ev;
}

void
SetAssocCache::invalidate(Addr line)
{
    const std::size_t base = setBase(line);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags_[base + w] == line) {
            tags_[base + w] = kNoLine;
            states_[base + w] = LineState::Invalid;
            return;
        }
    }
}

std::vector<Addr>
SetAssocCache::collectLines(LineState st) const
{
    std::vector<Addr> out;
    collectLines(st, out);
    return out;
}

void
SetAssocCache::collectLines(LineState st, std::vector<Addr>& out) const
{
    GGA_ASSERT(st != LineState::Invalid, "invalid ways hold no line");
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i] == st)
            out.push_back(tags_[i]);
    }
}

std::uint64_t
SetAssocCache::invalidateForAcquire(bool keep_owned)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const LineState s = states_[i];
        if (s == LineState::Invalid ||
            (keep_owned && s == LineState::Owned))
            continue;
        states_[i] = LineState::Invalid;
        tags_[i] = kNoLine;
        ++count;
    }
    return count;
}

void
SetAssocCache::cleanDirty()
{
    for (LineState& s : states_) {
        if (s == LineState::Dirty)
            s = LineState::Valid;
    }
}

} // namespace gga
