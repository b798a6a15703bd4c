/**
 * @file
 * Shared application scaffolding: graph device buffers and run results.
 */

#ifndef GGA_APPS_APP_HPP
#define GGA_APPS_APP_HPP

#include <cstdint>

#include "graph/csr.hpp"
#include "sim/address_space.hpp"
#include "sim/gpu.hpp"
#include "sim/mem_stats.hpp"
#include "sim/stall.hpp"

namespace gga {

/** CSR arrays placed in the simulated address space. */
struct GraphBuffers
{
    GraphBuffers(AddressSpace& space, const CsrGraph& g);

    DeviceBuffer<EdgeId> rowOff;
    DeviceBuffer<VertexId> col;
    DeviceBuffer<std::uint32_t> weight; ///< empty when the graph is unweighted
};

/**
 * The head of every app's kernel state: the graph, its CSR arrays in
 * device memory, and the L1 line size. As the first base it allocates
 * GraphBuffers before any app buffer, so device addresses do not move.
 */
struct GraphState
{
    GraphState(Gpu& gpu, const CsrGraph& graph);

    const CsrGraph& g;
    GraphBuffers gb;
    std::uint32_t lb; ///< line bytes, for coalescing
};

/** Timing outcome of one workload run. */
struct RunResult
{
    Cycles cycles = 0;          ///< total simulated GPU time
    StallBreakdown breakdown;   ///< per-category cycles summed over SMs
    MemStats mem;               ///< memory-system counters
    std::uint32_t kernels = 0;  ///< kernel launches
    std::uint64_t events = 0;   ///< simulator events processed (diagnostics)

    /** Field-wise equality (shard-invariance / determinism tests). */
    bool operator==(const RunResult&) const = default;
};

/** Collect a RunResult from a finished Gpu. */
RunResult collectResult(Gpu& gpu);

/** Iteration safety caps (deterministic termination with a warning). */
inline constexpr std::uint32_t kMaxSweeps = 4096;
inline constexpr std::uint32_t kPrIterations = 10;

} // namespace gga

#endif // GGA_APPS_APP_HPP
