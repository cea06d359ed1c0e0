#include "core/tpa.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "la/vector_ops.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tpa {

Status ValidateTpaOptions(const TpaOptions& options) {
  TPA_RETURN_IF_ERROR(ValidateCpiParameters(options.restart_probability,
                                            options.tolerance));
  if (options.family_window < 1) {
    return InvalidArgumentError("family window S must be at least 1");
  }
  if (options.stranger_start <= options.family_window) {
    return InvalidArgumentError("stranger start T must exceed S");
  }
  TPA_RETURN_IF_ERROR(
      ValidateFrontierThreshold(options.frontier_density_threshold));
  TPA_RETURN_IF_ERROR(
      ValidateFrontierThreshold(options.topk_frontier_density_threshold));
  return OkStatus();
}

namespace {

/// All node ids sorted by value descending, ties toward the smaller id —
/// the order TopKSelector ranks equal-scored candidates, so walking it
/// yields the best never-touched candidates first.
template <typename V>
std::vector<NodeId> ArgsortDescending(const std::vector<V>& values) {
  std::vector<NodeId> order(values.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&values](NodeId a, NodeId b) {
    return values[a] != values[b] ? values[a] > values[b] : a < b;
  });
  return order;
}

}  // namespace

template <typename V>
const std::vector<V>& Tpa::StrangerT() const {
  if constexpr (std::is_same_v<V, double>) {
    return stranger_;
  } else {
    return stranger_f_;
  }
}

template <typename V>
StatusOr<Tpa> Tpa::PreprocessT(const Graph& graph, const TpaOptions& options) {
  // Algorithm 2: r̃_stranger = CPI(Ã, {1..n}, c, ε, T, ∞) — the tail of the
  // PageRank series from iteration T on, run and stored at tier V.
  CpiOptions cpi;
  cpi.restart_probability = options.restart_probability;
  cpi.tolerance = options.tolerance;
  cpi.start_iteration = options.stranger_start;
  cpi.terminal_iteration = CpiOptions::kUnbounded;
  cpi.frontier_density_threshold = options.frontier_density_threshold;

  const std::vector<V> uniform(
      graph.num_nodes(),
      static_cast<V>(1.0 / static_cast<double>(graph.num_nodes())));
  TPA_ASSIGN_OR_RETURN(Cpi::ResultT<V> result,
                       Cpi::RunWithSeedVectorT<V>(graph, uniform, cpi));
  std::vector<NodeId> order = ArgsortDescending(result.scores);
  std::vector<double> stranger;
  std::vector<float> stranger_f;
  if constexpr (std::is_same_v<V, double>) {
    stranger = std::move(result.scores);
  } else {
    stranger_f = std::move(result.scores);
  }
  return Tpa(&graph, options, std::move(stranger), std::move(stranger_f),
             std::move(order));
}

StatusOr<Tpa> Tpa::Preprocess(const Graph& graph, const TpaOptions& options) {
  TPA_RETURN_IF_ERROR(ValidateTpaOptions(options));
  return graph.value_precision() == la::Precision::kFloat64
             ? PreprocessT<double>(graph, options)
             : PreprocessT<float>(graph, options);
}

StatusOr<Tpa> Tpa::FromPreprocessedState(const Graph& graph,
                                         const TpaOptions& options,
                                         std::vector<double> stranger,
                                         std::vector<float> stranger_f,
                                         std::vector<NodeId> stranger_order) {
  TPA_RETURN_IF_ERROR(ValidateTpaOptions(options));
  const size_t n = graph.num_nodes();
  const bool fp64 = graph.value_precision() == la::Precision::kFloat64;
  if (stranger.size() != (fp64 ? n : 0) ||
      stranger_f.size() != (fp64 ? 0 : n)) {
    return InvalidArgumentError(
        "preprocessed state requires an n-length stranger tail at the "
        "graph's tier and none at the other");
  }
  if (stranger_order.size() != n) {
    return InvalidArgumentError("stranger order must rank all n nodes");
  }
  std::vector<bool> seen(n, false);
  for (const NodeId node : stranger_order) {
    if (node >= n || seen[node]) {
      return InvalidArgumentError(
          "stranger order is not a permutation of the node ids");
    }
    seen[node] = true;
  }
  return Tpa(&graph, options, std::move(stranger), std::move(stranger_f),
             std::move(stranger_order));
}

double Tpa::NeighborScale() const {
  const double decay = 1.0 - options_.restart_probability;
  const double ds = std::pow(decay, options_.family_window);
  const double dt = std::pow(decay, options_.stranger_start);
  return (ds - dt) / (1.0 - ds);
}

CpiOptions Tpa::FamilyCpiOptions() const {
  // Algorithm 3 line 2: r_family = CPI(Ã, {s}, c, ε, 0, S-1).
  CpiOptions cpi;
  cpi.restart_probability = options_.restart_probability;
  cpi.tolerance = options_.tolerance;
  cpi.start_iteration = 0;
  cpi.terminal_iteration = options_.family_window - 1;
  cpi.frontier_density_threshold = options_.frontier_density_threshold;
  return cpi;
}

template <typename V>
Tpa::QueryParts Tpa::QueryDecomposedT(NodeId seed) const {
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  StatusOr<Cpi::ResultT<V>> family =
      Cpi::RunT<V>(*graph_, {seed}, FamilyCpiOptions(), workspace.get());
  TPA_CHECK(family.ok());  // options were validated at Preprocess time

  QueryParts parts;
  // Widening the fp32 family is exact per element.
  parts.family.assign(family->scores.begin(), family->scores.end());

  // Line 3: r̃_neighbor = (‖r_neighbor‖₁/‖r_family‖₁) · r_family.
  parts.neighbor_est = parts.family;
  la::Scale(NeighborScale(), parts.neighbor_est);

  // Line 4: r_TPA = r_family + r̃_neighbor + r̃_stranger.
  parts.total = parts.family;
  la::Axpy(1.0, parts.neighbor_est, parts.total);
  const std::vector<V>& stranger = StrangerT<V>();
  for (size_t i = 0; i < parts.total.size(); ++i) {
    parts.total[i] += static_cast<double>(stranger[i]);
  }
  return parts;
}

Tpa::QueryParts Tpa::QueryDecomposed(NodeId seed) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  return precision_ == la::Precision::kFloat64 ? QueryDecomposedT<double>(seed)
                                               : QueryDecomposedT<float>(seed);
}

template <typename V>
std::vector<V> Tpa::CheckedQuery(NodeId seed) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  // The fused single-seed merge is exactly the personalized query: it skips
  // the materialized neighbor vector of QueryDecomposed.
  StatusOr<std::vector<V>> total = QueryPersonalizedT<V>({seed});
  TPA_CHECK(total.ok());  // seed range-checked above; V is the graph's tier
  return *std::move(total);
}

std::vector<double> Tpa::Query(NodeId seed) const {
  if (precision_ == la::Precision::kFloat32) {
    return la::ConvertVector<double>(CheckedQuery<float>(seed));
  }
  return CheckedQuery<double>(seed);
}

std::vector<float> Tpa::QueryF(NodeId seed) const {
  TPA_CHECK(precision_ == la::Precision::kFloat32);
  return CheckedQuery<float>(seed);
}

TopKQueryResult Tpa::QueryTopK(NodeId seed, int k,
                               const TopKQueryOptions& topk_options) const {
  TPA_CHECK_LT(seed, graph_->num_nodes());
  TPA_CHECK_GE(k, 0);
  StatusOr<TopKQueryResult> result =
      QueryTopK(seed, k, topk_options, /*context=*/nullptr);
  TPA_CHECK(result.ok());  // inputs validated above and at Preprocess
  return *std::move(result);
}

template <typename V>
StatusOr<TopKQueryResult> Tpa::QueryTopKT(NodeId seed, int k,
                                          const TopKQueryOptions& topk_options,
                                          QueryContext* context) const {
  CpiOptions cpi = FamilyCpiOptions();
  cpi.frontier_density_threshold = options_.topk_frontier_density_threshold;
  Cpi::TopKRunOptions run;
  run.k = k;
  run.allow_early_termination = topk_options.allow_early_termination;
  Cpi::TopKBaseT<V> base;
  base.base = &StrangerT<V>();
  base.post_scale = 1.0 + NeighborScale();
  base.order = stranger_order_;
  TPA_FAILPOINT("tpa.workspace_checkout");
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  return Cpi::RunTopKT<V>(*graph_, {seed}, cpi, run, base, workspace.get(),
                          context);
}

StatusOr<TopKQueryResult> Tpa::QueryTopK(NodeId seed, int k,
                                         const TopKQueryOptions& topk_options,
                                         QueryContext* context) const {
  // Cpi::RunTopKT validates the seed and k.
  return precision_ == la::Precision::kFloat64
             ? QueryTopKT<double>(seed, k, topk_options, context)
             : QueryTopKT<float>(seed, k, topk_options, context);
}

template <typename V>
StatusOr<la::DenseBlockT<V>> Tpa::QueryBatchT(
    std::span<const NodeId> seeds,
    std::span<QueryContext* const> contexts) const {
  TPA_RETURN_IF_ERROR(ValidateTier(*graph_, la::kPrecisionOf<V>));
  TPA_FAILPOINT("tpa.workspace_checkout");
  const CpiOptions cpi = FamilyCpiOptions();
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  TPA_ASSIGN_OR_RETURN(
      la::DenseBlockT<V> block,
      Cpi::RunBatchT<V>(*graph_, seeds, cpi, workspace.get(), contexts));

  // The same fused merge as QueryPersonalizedT, blocked:
  // total = (1 + scale)·family + stranger per vector.
  la::BlockScale(1.0 + NeighborScale(), block);
  la::BlockAddVector(1.0, StrangerT<V>(), block);
  // An aborted seed's family bound propagates through the merge scaled by
  // (1 + scale); the stranger add is exact, so the scaled bound certifies
  // the returned vector.
  for (QueryContext* context : contexts) {
    if (context != nullptr && context->aborted) {
      context->error_bound *= 1.0 + NeighborScale();
    }
  }
  return block;
}

template <typename V>
StatusOr<std::vector<V>> Tpa::QueryPersonalizedT(
    const std::vector<NodeId>& seeds, QueryContext* context) const {
  TPA_RETURN_IF_ERROR(ValidateTier(*graph_, la::kPrecisionOf<V>));
  TPA_FAILPOINT("tpa.workspace_checkout");
  const CpiOptions cpi = FamilyCpiOptions();
  WorkspacePool::Lease workspace = workspaces_->Acquire();
  TPA_ASSIGN_OR_RETURN(
      Cpi::ResultT<V> family,
      Cpi::RunT<V>(*graph_, seeds, cpi, workspace.get(), context));

  std::vector<V> total = std::move(family.scores);
  // total = (1 + scale)·family + stranger, by the same Algorithm 3 merge.
  la::Scale(1.0 + NeighborScale(), total);
  la::Axpy(1.0, StrangerT<V>(), total);
  if (context != nullptr && context->aborted) {
    // As in QueryBatchT: the family bound through the merge's post-scale.
    context->error_bound *= 1.0 + NeighborScale();
  }
  return total;
}

template StatusOr<la::DenseBlockT<double>> Tpa::QueryBatchT<double>(
    std::span<const NodeId>, std::span<QueryContext* const>) const;
template StatusOr<la::DenseBlockT<float>> Tpa::QueryBatchT<float>(
    std::span<const NodeId>, std::span<QueryContext* const>) const;
template StatusOr<std::vector<double>> Tpa::QueryPersonalizedT<double>(
    const std::vector<NodeId>&, QueryContext*) const;
template StatusOr<std::vector<float>> Tpa::QueryPersonalizedT<float>(
    const std::vector<NodeId>&, QueryContext*) const;

double StrangerErrorBound(double restart_probability, int stranger_start) {
  return 2.0 * std::pow(1.0 - restart_probability, stranger_start);
}

double NeighborErrorBound(double restart_probability, int family_window,
                          int stranger_start) {
  const double decay = 1.0 - restart_probability;
  return 2.0 * std::pow(decay, family_window) -
         2.0 * std::pow(decay, stranger_start);
}

double TotalErrorBound(double restart_probability, int family_window) {
  return 2.0 * std::pow(1.0 - restart_probability, family_window);
}

}  // namespace tpa
