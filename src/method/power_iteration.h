#ifndef TPA_METHOD_POWER_ITERATION_H_
#define TPA_METHOD_POWER_ITERATION_H_

#include "core/cpi.h"
#include "method/rwr_method.h"

namespace tpa {

/// Exact RWR via cumulative power iteration run to convergence.
///
/// Serves as the numeric oracle of the evaluation (the paper uses BePI for
/// ground truth; both solve the same fixed point — see the BePI/CPI
/// agreement tests) and as the no-preprocessing reference point.
class PowerIterationRwr final : public RwrMethod {
 public:
  explicit PowerIterationRwr(CpiOptions options = {}) : options_(options) {
    options_.start_iteration = 0;
    options_.terminal_iteration = CpiOptions::kUnbounded;
  }

  std::string_view name() const override { return "PowerIteration"; }

  Status Preprocess(const Graph& graph, MemoryBudget& budget) override {
    (void)budget;  // no preprocessed data
    TPA_RETURN_IF_ERROR(ValidateCpiParameters(options_.restart_probability,
                                              options_.tolerance));
    graph_ = &graph;
    return OkStatus();
  }

  StatusOr<std::vector<double>> Query(NodeId seed,
                                      QueryContext* context =
                                          nullptr) override {
    return QueryT<double>(seed, context);
  }

  /// Reference native batch path: CPI to convergence for all seeds as one
  /// SpMM chain; each seed's accumulation stops at its own convergence
  /// iteration, so vectors match Query bitwise.
  StatusOr<la::DenseBlock> QueryBatchDense(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) override {
    return QueryBatchDenseT<double>(seeds, contexts);
  }

  bool SupportsBatchQuery() const override { return true; }

  /// Native bound-driven path: the convergence loop under Cpi::RunTopKT
  /// with no merge baseline — exact RWR's ranking typically certifies long
  /// before the 1e-9 norm tolerance, cutting the iteration count well
  /// below the full run's.
  StatusOr<TopKQueryResult> QueryTopK(NodeId seed, int k,
                                      const TopKQueryOptions& options = {},
                                      QueryContext* context =
                                          nullptr) override {
    if (graph_ == nullptr) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    Cpi::TopKRunOptions run;
    run.k = k;
    run.allow_early_termination = options.allow_early_termination;
    if (graph_->value_precision() == la::Precision::kFloat32) {
      return Cpi::RunTopKT<float>(*graph_, {seed}, options_, run, {}, nullptr,
                                  context);
    }
    return Cpi::RunTopKT<double>(*graph_, {seed}, options_, run, {}, nullptr,
                                 context);
  }

  bool SupportsTopKQuery() const override { return true; }

  /// CPI runs at either tier (the oracle of the fp32 accuracy-envelope
  /// tests runs on a separate fp64 graph).
  bool SupportsPrecision(la::Precision) const override { return true; }

  StatusOr<std::vector<float>> QueryF32(NodeId seed,
                                        QueryContext* context =
                                            nullptr) override {
    return QueryT<float>(seed, context);
  }

  StatusOr<la::DenseBlockF> QueryBatchDenseF32(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) override {
    return QueryBatchDenseT<float>(seeds, contexts);
  }

  size_t PreprocessedBytes() const override { return 0; }

  /// Each Query runs an independent CPI over the immutable graph.
  bool SupportsConcurrentQuery() const override { return true; }

 private:
  /// The dense entries at tier V; the Cpi run refuses a V that is not the
  /// graph's tier with FAILED_PRECONDITION.
  template <typename V>
  StatusOr<std::vector<V>> QueryT(NodeId seed, QueryContext* context) {
    if (graph_ == nullptr) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    TPA_ASSIGN_OR_RETURN(
        Cpi::ResultT<V> result,
        Cpi::RunT<V>(*graph_, {seed}, options_, nullptr, context));
    return std::move(result.scores);
  }
  template <typename V>
  StatusOr<la::DenseBlockT<V>> QueryBatchDenseT(
      std::span<const NodeId> seeds, std::span<QueryContext* const> contexts) {
    if (graph_ == nullptr) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    return Cpi::RunBatchT<V>(*graph_, seeds, options_, nullptr, contexts);
  }

  CpiOptions options_;
  const Graph* graph_ = nullptr;
};

}  // namespace tpa

#endif  // TPA_METHOD_POWER_ITERATION_H_
