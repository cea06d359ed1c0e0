#ifndef TPA_METHOD_TPA_METHOD_H_
#define TPA_METHOD_TPA_METHOD_H_

#include <optional>

#include "core/tpa.h"
#include "method/rwr_method.h"

namespace tpa {

/// RwrMethod adapter over the core Tpa implementation, so the proposed
/// method participates in the same experiment harness as the competitors.
class TpaMethod final : public RwrMethod {
 public:
  explicit TpaMethod(TpaOptions options = {}) : options_(options) {}

  /// Warm start: adopts an already-preprocessed core object (snapshot load,
  /// or a Tpa shared with non-engine code).  Preprocess then only verifies
  /// it is asked to serve the same graph the state was preprocessed against
  /// and skips the CPI recompute — queries are bitwise-identical to a
  /// freshly preprocessed engine because the adopted arrays *are* the
  /// preprocessed state.
  explicit TpaMethod(Tpa preloaded) : options_(preloaded.options()) {
    tpa_.emplace(std::move(preloaded));
  }

  std::string_view name() const override { return "TPA"; }

  Status Preprocess(const Graph& graph, MemoryBudget& budget) override {
    TPA_RETURN_IF_ERROR(ValidateTpaOptions(options_));
    // Preprocessed data is one value per node (Theorem 4), at the graph's
    // precision tier.
    TPA_RETURN_IF_ERROR(budget.Reserve(
        graph.num_nodes() *
        la::PrecisionValueBytes(graph.value_precision())));
    if (tpa_.has_value()) {
      // Preloaded path: the state is graph-specific, so reject an engine
      // that binds a different graph instead of silently serving stale
      // scores.
      if (&graph != &tpa_->graph()) {
        return FailedPreconditionError(
            "preloaded TPA state was preprocessed against a different graph");
      }
      return OkStatus();
    }
    TPA_ASSIGN_OR_RETURN(Tpa tpa, Tpa::Preprocess(graph, options_));
    tpa_.emplace(std::move(tpa));
    return OkStatus();
  }

  /// The single-seed personalized path is bitwise Tpa::Query and threads
  /// the cooperative abort into the family propagation.
  StatusOr<std::vector<double>> Query(NodeId seed,
                                      QueryContext* context =
                                          nullptr) override {
    return QueryT<double>(seed, context);
  }

  /// Native SpMM path: the S family iterations for the whole batch run as
  /// one multi-vector chain (Tpa::QueryBatchT), bitwise-identical per seed
  /// to Query.
  StatusOr<la::DenseBlock> QueryBatchDense(
      std::span<const NodeId> seeds,
      std::span<QueryContext* const> contexts = {}) override {
    return QueryBatchDenseT<double>(seeds, contexts);
  }

  bool SupportsBatchQuery() const override { return true; }

  /// Native bound-driven path: the family CPI under Cpi::RunTopKT with the
  /// stranger tail as the merge baseline, at the graph's tier.
  StatusOr<TopKQueryResult> QueryTopK(NodeId seed, int k,
                                      const TopKQueryOptions& options = {},
                                      QueryContext* context =
                                          nullptr) override {
    if (!tpa_.has_value()) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    return tpa_->QueryTopK(seed, k, options, context);
  }

  bool SupportsTopKQuery() const override { return true; }

  /// TPA runs natively at either tier: on an fp32 graph every propagation
  /// buffer, the stranger tail, and the returned scores stay fp32.
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

  size_t PreprocessedBytes() const override {
    return tpa_.has_value() ? tpa_->PreprocessedBytes() : 0;
  }

  /// Tpa::Query is const over immutable preprocessed state.
  bool SupportsConcurrentQuery() const override { return true; }

  /// The wrapped core object (null before Preprocess) — lets tests observe
  /// serving internals like the workspace pool through an engine that owns
  /// the method.
  const Tpa* tpa() const { return tpa_.has_value() ? &*tpa_ : nullptr; }

 private:
  /// The dense entries at tier V; Tpa refuses a V that is not the graph's
  /// tier with FAILED_PRECONDITION.
  template <typename V>
  StatusOr<std::vector<V>> QueryT(NodeId seed, QueryContext* context) {
    if (!tpa_.has_value()) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    return tpa_->QueryPersonalizedT<V>({seed}, context);
  }
  template <typename V>
  StatusOr<la::DenseBlockT<V>> QueryBatchDenseT(
      std::span<const NodeId> seeds, std::span<QueryContext* const> contexts) {
    if (!tpa_.has_value()) {
      return FailedPreconditionError("Preprocess must be called before Query");
    }
    return tpa_->QueryBatchT<V>(seeds, contexts);
  }

  TpaOptions options_;
  std::optional<Tpa> tpa_;
};

}  // namespace tpa

#endif  // TPA_METHOD_TPA_METHOD_H_
