#include "kernel/registry.h"

#include <limits>
#include <sstream>

namespace moaflat::kernel {

OperandView OperandView::Of(const Bat& b) {
  OperandView v;
  v.props = b.props();
  v.size = b.size();
  v.head_width = b.head().width();
  v.tail_width = b.tail().width();
  v.head_void = b.head().is_void();
  v.tail_void = b.tail().is_void();
  v.head_hashed = b.HasHeadHash();
  v.tail_hashed = b.HasTailHash();
  v.has_datavector = b.datavector() != nullptr;
  v.head_oidlike =
      b.head().type() == MonetType::kOidT || b.head().is_void();
  return v;
}

std::string OperandView::ToString() const {
  std::ostringstream os;
  os << "#" << size << " " << props.ToString();
  if (has_datavector) os << " +dv";
  if (head_hashed) os << " +hhash";
  if (tail_hashed) os << " +thash";
  if (head_void) os << " hvoid";
  if (tail_void) os << " tvoid";
  return os.str();
}

std::string DispatchInput::ToString() const {
  std::string out = "(" + left.ToString();
  if (right.has_value()) out += "; " + right->ToString();
  if (synced) out += "; synced";
  if (tail_head_aligned) out += "; aligned";
  if (param.has_value()) {
    out += "; param=";
    out += std::to_string(param->code);
  }
  if (degree > 1) out += "; deg=" + std::to_string(degree);
  if (est_selectivity >= 0) {
    out += "; sel=" + std::to_string(est_selectivity);
  }
  out += ")";
  return out;
}

DispatchInput MakeInput(const Bat& ab) {
  DispatchInput in;
  in.left = OperandView::Of(ab);
  return in;
}

DispatchInput MakeInput(const Bat& ab, const Bat& cd) {
  DispatchInput in;
  in.left = OperandView::Of(ab);
  in.right = OperandView::Of(cd);
  in.synced = ab.SyncedWith(cd);
  const bat::Column& b = ab.tail();
  const bat::Column& c = cd.head();
  in.tail_head_aligned =
      (b.is_void() && c.is_void() && b.void_base() == c.void_base() &&
       b.size() == c.size()) ||
      (b.sync_key() == c.sync_key() && b.size() == c.size());
  return in;
}

DispatchInput MakeInput(const ExecContext& ctx, const Bat& ab) {
  DispatchInput in = MakeInput(ab);
  in.degree = ctx.parallel_degree();
  return in;
}

DispatchInput MakeInput(const ExecContext& ctx, const Bat& ab,
                        const Bat& cd) {
  DispatchInput in = MakeInput(ab, cd);
  in.degree = ctx.parallel_degree();
  return in;
}

void KernelRegistry::Register(const std::string& op, Variant v) {
  ops_[op].push_back(std::move(v));
}

const KernelRegistry::Variant* KernelRegistry::Choose(
    const std::string& op, const DispatchInput& in) const {
  auto it = ops_.find(op);
  if (it == ops_.end()) return nullptr;
  const Variant* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Variant& v : it->second) {
    if (!v.applicable(in)) continue;
    const double c = v.cost(in);
    if (best == nullptr || c < best_cost) {
      best = &v;
      best_cost = c;
    }
  }
  return best;
}

std::optional<double> KernelRegistry::PriceCheapest(
    const std::string& op, const DispatchInput& in) const {
  const Variant* v = Choose(op, in);
  if (v == nullptr) return std::nullopt;
  return v->cost(in);
}

KernelRegistry::Explanation KernelRegistry::Explain(
    const std::string& op, const DispatchInput& in) const {
  Explanation ex;
  ex.op = op;
  ex.input = in.ToString();
  const Variant* chosen = Choose(op, in);
  auto it = ops_.find(op);
  if (it == ops_.end()) return ex;
  for (const Variant& v : it->second) {
    Candidate c;
    c.name = v.name;
    c.applicable = v.applicable(in);
    // Inapplicable variants keep the default infinite cost: rendering or
    // sorting the table must never present a vetoed variant as cheapest.
    if (c.applicable) c.cost = v.cost(in);
    c.chosen = (&v == chosen);
    c.note = v.note;
    ex.candidates.push_back(std::move(c));
  }
  if (chosen != nullptr) ex.chosen = chosen->name;
  return ex;
}

KernelRegistry::Explanation KernelRegistry::Explain(const std::string& op,
                                                    const Bat& ab) const {
  return Explain(op, MakeInput(ab));
}

KernelRegistry::Explanation KernelRegistry::Explain(const std::string& op,
                                                    const Bat& ab,
                                                    const Bat& cd) const {
  return Explain(op, MakeInput(ab, cd));
}

std::string KernelRegistry::Explanation::ToString() const {
  std::ostringstream os;
  os << op << " " << input << "\n";
  for (const Candidate& c : candidates) {
    os << "  " << (c.chosen ? "-> " : "   ") << c.name;
    if (c.applicable) {
      os << "  cost=" << c.cost;
    } else {
      os << "  cost=-  (inapplicable)";
    }
    if (!c.note.empty()) os << "  # " << c.note;
    os << "\n";
  }
  if (chosen.empty()) os << "  (no applicable implementation)\n";
  return os.str();
}

std::vector<std::string> KernelRegistry::Ops() const {
  std::vector<std::string> out;
  out.reserve(ops_.size());
  for (const auto& [name, variants] : ops_) out.push_back(name);
  return out;
}

const std::vector<KernelRegistry::Variant>* KernelRegistry::VariantsOf(
    const std::string& op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? nullptr : &it->second;
}

KernelRegistry& KernelRegistry::Global() {
  static KernelRegistry* registry = [] {
    auto* r = new KernelRegistry();
    internal::RegisterSelectKernels(*r);
    internal::RegisterJoinKernels(*r);
    internal::RegisterSemijoinKernels(*r);
    internal::RegisterGroupKernels(*r);
    internal::RegisterAggregateKernels(*r);
    internal::RegisterThetaJoinKernels(*r);
    internal::RegisterMultiplexKernels(*r);
    return r;
  }();
  return *registry;
}

}  // namespace moaflat::kernel
