/**
 * @file
 * Edge-list accumulator that produces canonical CsrGraph instances.
 */

#ifndef GGA_GRAPH_BUILDER_HPP
#define GGA_GRAPH_BUILDER_HPP

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace gga {

/**
 * Collects (possibly duplicated, possibly self-looping, possibly one-sided)
 * edges and builds a deduplicated CSR. Matches the paper's input
 * canonicalization: self-edges removed, graph converted to directed
 * symmetric form (Sec. V-A).
 */
class GraphBuilder
{
  public:
    explicit GraphBuilder(VertexId num_vertices);

    /** Add a directed edge u->v (duplicates and self-loops filtered later). */
    void addEdge(VertexId u, VertexId v);

    /** Pre-size the raw edge arrays for @p raw_edges addEdge calls. */
    void
    reserveEdges(std::size_t raw_edges)
    {
        srcs_.reserve(srcs_.size() + raw_edges);
        dsts_.reserve(dsts_.size() + raw_edges);
    }

    /** Add both u->v and v->u. */
    void addUndirected(VertexId u, VertexId v);

    VertexId numVertices() const { return numVertices_; }

    /** Number of raw (pre-canonicalization) directed edges added so far. */
    std::size_t numRawEdges() const { return srcs_.size(); }

    /**
     * Keep self-loops in the built graph (one u->u edge each) instead of
     * dropping them. Off by default, matching the paper's
     * canonicalization; the MatrixMarket reader turns it on for lossless
     * round trips.
     */
    void keepSelfLoops(bool keep) { keepSelfLoops_ = keep; }

    /**
     * Worker threads for build(). 0 (the default) resolves through
     * defaultBuildThreads(). The built graph is bit-identical at every
     * thread count — threads only change wall time.
     */
    void threads(unsigned t) { threads_ = t; }

    /**
     * Build the canonical graph: drop self-loops (unless keepSelfLoops),
     * symmetrize, dedupe, sort adjacency lists.
     *
     * Runs the two-pass counting-sort construction: per-thread partitions
     * of the raw edge list are counted and scattered into per-row
     * segments, rows are sorted/deduped in parallel, and the result is
     * compacted — O(|E| + |V|) instead of the reference path's global
     * O(|E| log |E|) sort, and parallel across threads(). The output is
     * byte-identical to buildReferenceSort() at every thread count (the
     * canonical form — sorted, deduplicated rows — does not depend on
     * construction order; tests assert it).
     *
     * @param with_weights derive deterministic per-undirected-pair weights
     *        in [1, 31] from a hash of the endpoint ids (both directions of
     *        a pair share the weight, as an undirected weighted graph
     *        requires).
     */
    CsrGraph build(bool with_weights = false) const;

    /**
     * The original serial build path (pack pairs, std::sort, unique),
     * kept as the test oracle for build(): test_graph requires the two
     * to produce byte-identical graphs at every thread count.
     */
    CsrGraph buildReferenceSort(bool with_weights = false) const;

  private:
    CsrGraph buildCounting(bool with_weights, unsigned threads) const;

    VertexId numVertices_;
    bool keepSelfLoops_ = false;
    unsigned threads_ = 0;
    std::vector<VertexId> srcs_;
    std::vector<VertexId> dsts_;
};

/** Deterministic weight in [1, 31] for the undirected pair {u, v}. */
std::uint32_t pairWeight(VertexId u, VertexId v);

/**
 * Build-thread default when GraphBuilder::threads was never set (or set
 * to 0): GGA_BUILD_THREADS, else GGA_SESSION_THREADS, else 1. The
 * GraphStore overrides this with the owning session's executor width.
 */
unsigned defaultBuildThreads();

} // namespace gga

#endif // GGA_GRAPH_BUILDER_HPP
