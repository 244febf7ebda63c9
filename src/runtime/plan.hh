/**
 * @file
 * Execution plans: which dataflow the runtime lowers an LSTM network
 * onto. A plan is pure schedule/approximation metadata — the decisions
 * themselves (where to break context links, how many rows to skip) are
 * produced by the optimisation passes in src/core (or searched by
 * src/sched) and recorded here.
 *
 * A plan is its per-layer ScheduleDecisions plus a display label
 * (DESIGN.md §14). The paper's schemes are presets: named points of
 * the decision space built by ExecutionPlan::preset(). A searched plan
 * (fromDecisions) is labelled PlanKind::Tuned.
 */

#ifndef MFLSTM_RUNTIME_PLAN_HH
#define MFLSTM_RUNTIME_PLAN_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "quant/qformat.hh"
#include "runtime/schedule.hh"

namespace mflstm {
namespace runtime {

/** The execution schemes compared in the paper's evaluation. */
enum class PlanKind {
    Baseline,     ///< Algorithm 1: per-cell Sgemv (state of the art)
    InterCell,    ///< Section IV: layer division + tissue Sgemm
    IntraCellSw,  ///< Section V DRS, pure software (divergent)
    IntraCellHw,  ///< Section V DRS with the CRM hardware
    Combined,     ///< inter + intra(HW) together
    ZeroPruning,  ///< element-level magnitude pruning comparator [31]
    Tuned,        ///< explicit searched ScheduleDecisions (src/sched)
    Persistent,   ///< tissue waves + register-file weight residency
};

const char *toString(PlanKind kind);

/**
 * Parse a plan-kind spelling; nullopt on anything unknown. Accepts the
 * canonical toString() names plus the historical CLI short forms
 * ("inter", "intra-sw", "intra-hw") so reports and flags round-trip.
 */
std::optional<PlanKind> planKindFromString(const std::string &s);

/** Static shape of one LSTM layer on the device. */
struct LstmLayerShape
{
    std::size_t inputSize = 0;   ///< E for layer 0, H above
    std::size_t hiddenSize = 0;  ///< H
    std::size_t length = 0;      ///< cells per layer (timesteps)

    bool operator==(const LstmLayerShape &) const = default;
};

/** Shape of a whole stacked-LSTM network (Table II row). */
struct NetworkShape
{
    std::vector<LstmLayerShape> layers;

    /** Standard stack: embed-size input, uniform hidden size. */
    static NetworkShape stacked(std::size_t embed_size,
                                std::size_t hidden_size,
                                std::size_t num_layers,
                                std::size_t length);

    bool operator==(const NetworkShape &) const = default;
};

/** A full execution plan for one network (DESIGN.md §14). */
struct ExecutionPlan
{
    /// display label: the preset the plan was built from, or Tuned
    PlanKind kind = PlanKind::Baseline;
    /// the per-layer schedule the lowering executes
    ScheduleDecisions decisions;

    /**
     * The schedule the lowering executes for @p layer_index: the
     * layer's decision, or a dense fp32 layer beyond the decision
     * vector (so ExecutionPlan{} is the Algorithm 1 baseline).
     */
    LayerSchedule layerSchedule(std::size_t layer_index) const;

    /** Lowering emits HW-compacted row-skip kernels (CRM available). */
    bool usesCrmHardware() const;

    /**
     * Wrap searched decisions @p d into a plan labelled
     * PlanKind::Tuned. @throws std::invalid_argument via d.validate().
     */
    static ExecutionPlan fromDecisions(ScheduleDecisions d);

    /**
     * The canonical decisions of preset @p kind for @p num_layers
     * layers at precision @p quant. Tissue-using kinds take layer l's
     * schedule from @p tissue_sizes[l] and skip-using kinds its skip
     * fraction from @p skip_fractions[l] (a layer beyond either vector
     * stays dense). The per-kind rules: ZeroPruning is fp32 CSR at
     * @p prune_fraction; Persistent pins U in the register file;
     * IntraCellSw skips in software with standalone flags;
     * IntraCellHw and Combined skip on the CRM with a fused epilogue.
     */
    static ExecutionPlan
    preset(PlanKind kind, std::size_t num_layers, quant::QuantMode quant,
           const std::vector<std::vector<std::size_t>> &tissue_sizes = {},
           const std::vector<double> &skip_fractions = {},
           double prune_fraction = 0.0);

    bool operator==(const ExecutionPlan &) const = default;
};

/** Preset @p kind batches cells into tissues (InterCell, Combined,
 *  Persistent — the persistent waves are the tissue waves). */
bool presetUsesTissues(PlanKind kind);

/** Preset @p kind skips rows with DRS (IntraCellSw/Hw, Combined). */
bool presetUsesSkip(PlanKind kind);

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_PLAN_HH
