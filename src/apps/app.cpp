#include "apps/app.hpp"

namespace gga {

GraphBuffers::GraphBuffers(AddressSpace& space, const CsrGraph& g)
    : rowOff(space, g.rowOffsets(), "csr.rowOff"),
      col(space, g.colIndices(), "csr.col"),
      weight(space, g.weights(), "csr.weight")
{
}

GraphState::GraphState(Gpu& gpu, const CsrGraph& graph)
    : g(graph), gb(gpu.mem(), graph), lb(gpu.params().lineBytes)
{
}

RunResult
collectResult(Gpu& gpu)
{
    RunResult r;
    r.cycles = gpu.now();
    r.breakdown = gpu.totalBreakdown();
    r.mem = gpu.memStats();
    r.kernels = gpu.kernelsLaunched();
    r.events = gpu.engine().processedEvents();
    return r;
}

} // namespace gga
