/**
 * @file
 * AppRegistry: the queryable table of applications behind the Plan/Session
 * API.
 *
 * Each application translation unit (src/apps/<app>.cpp) registers its
 * kernel driver via a registerXxxApp hook. Everything else about an entry
 * — name, Table III properties, and which configurations it accepts — is
 * derived from the AppId, so the push/pull validity rule is stated once
 * (Entry::validConfig) instead of per app.
 */

#ifndef GGA_API_REGISTRY_HPP
#define GGA_API_REGISTRY_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/outputs.hpp"
#include "apps/app.hpp"
#include "graph/csr.hpp"
#include "model/algo_props.hpp"
#include "model/config.hpp"
#include "sim/params.hpp"

namespace gga {

class AppRegistry
{
  public:
    /**
     * An app's kernel driver: simulates the app on the graph under the
     * configuration and, when @p out is non-null, stores the app's typed
     * output there. The std::uint64_t is the run's RNG seed (see
     * RunPlan::seed); apps without stochastic choices ignore it, and seed
     * 0 must reproduce the paper runs exactly (the determinism goldens pin
     * this). Callers must pass a configuration validConfig accepts.
     */
    using RunnerFn = RunResult (*)(const CsrGraph&, const SystemConfig&,
                                   const SimParams&, std::uint64_t,
                                   AppOutput*);

    /** One registered application. */
    struct Entry
    {
        AppId id{};
        std::string name;              ///< short uppercase name ("PR", ...)
        AlgoProperties properties;     ///< paper Table III row
        std::string configRequirement; ///< human-readable validConfig rule
        RunnerFn run = nullptr;

        /**
         * Table III's rule: a static traversal runs Push or Pull, a
         * dynamic traversal runs PushPull.
         */
        bool validConfig(const SystemConfig& cfg) const;
    };

    /** The process-wide registry with all built-in apps registered. */
    static const AppRegistry& instance();

    /**
     * Register @p run as @p app's driver; the rest of the entry is derived
     * from the AppId. Registering an id twice is fatal.
     */
    void add(AppId app, RunnerFn run);

    /** Entry for @p app, or nullptr if not registered. */
    const Entry* find(AppId app) const;

    /** Entry for @p app; fatal if not registered. */
    const Entry& at(AppId app) const;

    /** Entry whose name matches @p name (case-sensitive), or nullptr. */
    const Entry* findByName(std::string_view name) const;

    /** All entries, in registration order. */
    const std::vector<Entry>& entries() const { return entries_; }

    std::size_t size() const { return entries_.size(); }

    /**
     * Configurations from @p candidates that @p app accepts — the
     * registry-backed replacement for hand-filtering allConfigs().
     */
    std::vector<SystemConfig>
    validConfigs(AppId app, const std::vector<SystemConfig>& candidates) const;

  private:
    std::vector<Entry> entries_;
};

/**
 * Self-registration hooks, one per application translation unit: each
 * adds its kernel driver, which stays private to the app's file. The
 * registry singleton invokes these once.
 */
void registerPrApp(AppRegistry& reg);
void registerSsspApp(AppRegistry& reg);
void registerMisApp(AppRegistry& reg);
void registerClrApp(AppRegistry& reg);
void registerBcApp(AppRegistry& reg);
void registerCcApp(AppRegistry& reg);

} // namespace gga

#endif // GGA_API_REGISTRY_HPP
