/**
 * @file
 * Reproduces the paper's partial-design-space analysis (Secs. IV-B, VI
 * "inter-dependent design dimensions"): when the hardware does not support
 * DRFrlx, which workloads flip from push to pull, and how well the
 * restricted model predicts the restricted-space best.
 *
 * The paper reports seven workloads that would flip to pull without
 * DRFrlx, with the partial model predicting four of the seven correctly,
 * and highlights MIS-RAJ: push under DRF1-only can run far worse than
 * pull (up to 80%).
 *
 * Both sweeps of every workload (full space and restricted) live in one
 * deduplicated work-unit manifest (the configurations they share are
 * simulated once), executed on the in-process Session executor via
 * runManifest — the same units and renderer the gga_worker/gga_merge
 * sharded pipeline uses.
 *
 * Usage: partial_design_space [--csv]
 * Environment: GGA_SCALE in (0,1] scales the inputs down for quick runs;
 * GGA_SESSION_THREADS > 1 widens the executor.
 */

#include <cstring>
#include <iostream>

#include "eval/run.hpp"
#include "harness/figures.hpp"
#include "harness/workloads.hpp"
#include "support/log.hpp"

int
main(int argc, char** argv)
{
    const bool csv = argc > 1 && !std::strcmp(argv[1], "--csv");
    gga::setVerbose(true);

    gga::SessionOptions session_opts;
    session_opts.scale = gga::evaluationScale(); // sweeps honor GGA_SCALE
    session_opts.verboseRuns = true;
    gga::Session session(session_opts);

    const gga::FigureSet set =
        gga::figureSet("partial", session.options().scale);
    const gga::ResultSet results = gga::runManifest(session, set.manifest);

    std::cout << "Partial design space (no DRFrlx): best configuration "
                 "and partial-model prediction\n(scale="
              << session.options().scale
              << ", session threads=" << session.threads()
              << ")\n\n";
    std::cout << gga::renderFigure(set, results, csv);
    return 0;
}
