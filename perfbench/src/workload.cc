#include "workload.h"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

using gemstone::Result;
using gemstone::Status;

const char* const kKindNames[kNumKinds] = {"read", "write", "query",
                                           "history"};

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "oltp_point") {
    *out = Workload::kOltpPoint;
  } else if (name == "compute_read") {
    *out = Workload::kComputeRead;
  } else if (name == "time_travel") {
    *out = Workload::kTimeTravel;
  } else {
    return false;
  }
  return true;
}

Shape ShapeFor(Workload w, bool tiny) {
  Shape s;
  switch (w) {
    case Workload::kOltpPoint:
      s.accounts = tiny ? 400 : 10'000;
      s.employees = tiny ? 40 : 200;
      break;
    case Workload::kComputeRead:
      s.accounts = tiny ? 400 : 10'000;
      s.employees = tiny ? 100 : 2'000;
      s.group_size = tiny ? 100 : 1'000;
      break;
    case Workload::kTimeTravel:
      s.accounts = tiny ? 100 : 1'000;
      s.employees = tiny ? 40 : 200;
      s.versions = tiny ? 24 : 64;
      s.resident_versions = tiny ? 4 : 8;
      s.versions_per_round = tiny ? 10 : 14;
      s.tiers = true;
      break;
  }
  return s;
}

Mix MainMix(Workload w) {
  Mix m;
  switch (w) {
    case Workload::kOltpPoint:
      m.weight[kRead] = 0.8;
      m.weight[kWrite] = 0.2;
      break;
    case Workload::kComputeRead:
      m.weight[kRead] = 0.8;
      m.weight[kQuery] = 0.2;
      break;
    case Workload::kTimeTravel:
      m.weight[kHistory] = 0.7;
      m.weight[kRead] = 0.2;
      m.weight[kWrite] = 0.1;
      break;
  }
  return m;
}

Mix ProbeMix(Workload w) {
  Mix m;
  switch (w) {
    case Workload::kOltpPoint:
      m.weight[kQuery] = 0.5;
      m.weight[kHistory] = 0.5;
      break;
    case Workload::kComputeRead:
      m.weight[kWrite] = 0.5;
      m.weight[kHistory] = 0.5;
      break;
    case Workload::kTimeTravel:
      m.weight[kQuery] = 1.0;
      break;
  }
  return m;
}

double OpenLoopRate(Workload w) {
  switch (w) {
    case Workload::kOltpPoint:
      return 250;
    case Workload::kComputeRead:
      return 80;
    case Workload::kTimeTravel:
      return 1000;
  }
  return 0;
}

Model::Model(Workload workload, Shape shape, std::uint64_t seed)
    : workload_(workload), shape_(shape), seed_(seed) {
  Rng rng(seed ^ 0x5eed0001ull);
  accounts_.reserve(shape.accounts);
  for (std::size_t k = 0; k < shape.accounts; ++k) {
    accounts_.push_back(std::make_unique<AccountModel>());
  }
  employees_.resize(shape.employees);
  for (std::size_t i = 0; i < shape.employees; ++i) {
    employees_[i].name = "e" + std::to_string(i + 1);
    employees_[i].salary = 20'000 + static_cast<std::int64_t>(rng.Below(40'000));
    employees_[i].dept = static_cast<int>(rng.Below(8));
  }
  hot_order_.resize(shape.accounts);
  for (std::size_t k = 0; k < shape.accounts; ++k) hot_order_[k] = k;
  for (std::size_t k = shape.accounts; k > 1; --k) {
    std::swap(hot_order_[k - 1], hot_order_[rng.Below(k)]);
  }
}

void Model::Acknowledge(std::size_t k, std::uint64_t time,
                        std::int64_t value) {
  AccountModel& a = *accounts_[k];
  {
    std::lock_guard<std::mutex> lock(a.mu);
    a.versions.push_back({time, value});
  }
  a.acked.store(value);
}

std::uint64_t Model::ElementVersions() const {
  std::uint64_t n = setup_bindings_;
  for (const auto& a : accounts_) {
    std::lock_guard<std::mutex> lock(a->mu);
    n += a->versions.size();
  }
  return n;
}

void Model::Perturb() {
  AccountModel& a = *accounts_[hot_order_[0]];
  std::lock_guard<std::mutex> lock(a.mu);
  a.versions.back().value += 1;
  a.acked.store(a.versions.back().value);
  a.sent.store(a.versions.back().value);
}

namespace {

std::string Literal(const std::vector<std::int64_t>& values) {
  std::string out = "#(";
  for (std::int64_t v : values) out += std::to_string(v) + " ";
  out += ")";
  return out;
}

Status Expect(const Result<std::string>& r, const char* what) {
  if (!r.ok()) {
    return Status::Internal(std::string("setup ") + what + ": " +
                            r.status().ToString());
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::uint64_t>> Model::Setup(
    Conn* conn, const std::function<Status()>& compact) {
  Rng rng(seed_ ^ 0x5eed0002ull);
  std::vector<std::uint64_t> times;
  const std::size_t n = accounts_.size();
  constexpr std::size_t kBatch = 1000;
  GS_RETURN_IF_ERROR(Expect(
      conn->Execute("Object subclass: 'Account' "
                    "instVarNames: #('balance' 'owner')"),
      "Account class"));
  GS_RETURN_IF_ERROR(Expect(
      conn->Execute("Account compileMethod: 'balance ^balance'"),
      "Account>>balance"));
  GS_RETURN_IF_ERROR(Expect(
      conn->Execute("Object subclass: 'Employee' "
                    "instVarNames: #('Name' 'Salary' 'Dept')"),
      "Employee class"));

  // Accounts with seeded opening balances, in one transaction.
  std::vector<std::int64_t> balances(n);
  for (auto& b : balances) b = 1000 + static_cast<std::int64_t>(rng.Below(1000));
  GS_RETURN_IF_ERROR(Expect(
      conn->Execute("Accounts := Array new: " + std::to_string(n) + ". 0"),
      "Accounts"));
  for (std::size_t off = 0; off < n; off += kBatch) {
    const std::size_t len = std::min(kBatch, n - off);
    std::vector<std::int64_t> slice(balances.begin() + off,
                                    balances.begin() + off + len);
    GS_RETURN_IF_ERROR(Expect(
        conn->Execute("| b | b := " + Literal(slice) + ". 1 to: " +
                      std::to_string(len) +
                      " do: [:i | | a | a := Account new. a instVarNamed: "
                      "'balance' put: (b at: i). Accounts at: " +
                      std::to_string(off) + " + i put: a]. 0"),
        "accounts"));
  }
  GS_ASSIGN_OR_RETURN(std::uint64_t created, conn->Commit());
  times.push_back(created);
  for (std::size_t k = 0; k < n; ++k) {
    accounts_[k]->versions.clear();
    Acknowledge(k, created, balances[k]);
    accounts_[k]->sent.store(balances[k]);
  }
  setup_bindings_ = n;

  // The Employees set the set-calculus queries select from.
  GS_RETURN_IF_ERROR(
      Expect(conn->Execute("Employees := Set new. 0"), "Employees"));
  constexpr std::size_t kEmpBatch = 500;
  for (std::size_t off = 0; off < employees_.size(); off += kEmpBatch) {
    const std::size_t len = std::min(kEmpBatch, employees_.size() - off);
    std::vector<std::int64_t> salary, dept;
    for (std::size_t i = off; i < off + len; ++i) {
      salary.push_back(employees_[i].salary);
      dept.push_back(employees_[i].dept);
    }
    GS_RETURN_IF_ERROR(Expect(
        conn->Execute(
            "| s d | s := " + Literal(salary) + ". d := " + Literal(dept) +
            ". 1 to: " + std::to_string(len) +
            " do: [:i | | e | e := Employee new. e instVarNamed: 'Name' "
            "put: 'e', (" +
            std::to_string(off) +
            " + i) printString. e instVarNamed: 'Salary' put: (s at: i). "
            "e instVarNamed: 'Dept' put: 'd', (d at: i) printString. "
            "Employees add: e]. 0"),
        "employees"));
  }
  GS_ASSIGN_OR_RETURN(std::uint64_t staffed, conn->Commit());
  times.push_back(staffed);
  setup_bindings_ += 3 * employees_.size();

  // compute_read: the accounts split into groups for the analytic blocks.
  if (shape_.group_size > 0) {
    const std::size_t groups = n / shape_.group_size;
    const std::string size = std::to_string(shape_.group_size);
    GS_RETURN_IF_ERROR(Expect(
        conn->Execute("Groups := Array new: " + std::to_string(groups) +
                      ". 1 to: " + std::to_string(groups) +
                      " do: [:g | | grp | grp := Array new: " + size +
                      ". 1 to: " + size +
                      " do: [:i | grp at: i put: (Accounts at: g - 1 * " +
                      size + " + i)]. Groups at: g put: grp]. 0"),
        "Groups"));
    GS_ASSIGN_OR_RETURN(std::uint64_t grouped, conn->Commit());
    times.push_back(grouped);
    setup_bindings_ += groups + groups * shape_.group_size;
  }

  // time_travel: grow every account's history, demoting all but the
  // newest `resident_versions` versions into the tier store's cold runs.
  const std::size_t demoted = shape_.versions - shape_.resident_versions;
  for (std::size_t v = 0; v < shape_.versions; ++v) {
    for (std::size_t k = 0; k < n; ++k) {
      balances[k] += 1 + static_cast<std::int64_t>(rng.Below(100));
    }
    GS_RETURN_IF_ERROR(Expect(
        conn->Execute("| b | b := " + Literal(balances) + ". 1 to: " +
                      std::to_string(n) +
                      " do: [:i | (Accounts at: i) instVarNamed: 'balance' "
                      "put: (b at: i)]. 0"),
        "versions"));
    GS_ASSIGN_OR_RETURN(std::uint64_t t, conn->Commit());
    times.push_back(t);
    for (std::size_t k = 0; k < n; ++k) {
      Acknowledge(k, t, balances[k]);
      accounts_[k]->sent.store(balances[k]);
    }
    if (v + 1 <= demoted && (v + 1) % shape_.versions_per_round == 0) {
      GS_RETURN_IF_ERROR(compact());
    }
  }
  return times;
}

OpRunner::OpRunner(Model* model, int client, int clients, std::uint64_t seed)
    : model_(model),
      client_(client),
      clients_(clients),
      rng_(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                              client + 1))),
      zipf_(model->accounts(), 0.99) {}

std::size_t OpRunner::OwnAccount() {
  const std::size_t n = model_->accounts();
  const auto c = static_cast<std::size_t>(client_);
  const auto stride = static_cast<std::size_t>(clients_);
  const std::size_t owned = (n - c + stride - 1) / stride;
  return c + stride * rng_.Below(owned);
}

Op OpRunner::Next(const Mix& mix) {
  double total = 0;
  for (double w : mix.weight) total += w;
  double pick = rng_.Unit() * total;
  Op op;
  op.kind = kRead;
  for (int k = 0; k < kNumKinds; ++k) {
    if (mix.weight[k] <= 0) continue;
    op.kind = static_cast<OpKind>(k);
    if (pick < mix.weight[k]) break;
    pick -= mix.weight[k];
  }
  const Workload w = model_->workload();
  const std::size_t n = model_->accounts();
  switch (op.kind) {
    case kRead:
      if (w == Workload::kComputeRead) {
        op.analytic = true;
        const std::size_t size = model_->shape().group_size;
        const std::size_t g = rng_.Below(n / size);
        op.account = g * size;  // first account of the group
        op.variant = static_cast<int>(rng_.Below(3));
        op.pivot = op.account + rng_.Below(size);
      } else if (w == Workload::kOltpPoint) {
        op.account = model_->HotAccount(zipf_.Sample(rng_));
      } else {
        op.account = rng_.Below(n);
      }
      break;
    case kWrite:
      op.account = OwnAccount();
      break;
    case kQuery: {
      const auto& emps = model_->employees();
      std::vector<std::int64_t> salaries;
      const bool by_dept = rng_.Below(2) == 1;
      const int dept = static_cast<int>(rng_.Below(8));
      for (const Employee& e : emps) {
        if (!by_dept || e.dept == dept) salaries.push_back(e.salary);
      }
      std::sort(salaries.rbegin(), salaries.rend());
      // Select roughly the top 1% (at least a few rows).
      const std::size_t rank = std::min<std::size_t>(
          salaries.empty() ? 0 : salaries.size() - 1,
          2 + rng_.Below(std::max<std::size_t>(2, salaries.size() / 50)));
      const std::int64_t floor = salaries.empty() ? 0 : salaries[rank];
      op.text = "{{N: e!Name} where (e in Employees) [(e!Salary > " +
                std::to_string(floor) + ")";
      if (by_dept) op.text += " and (e!Dept = 'd" + std::to_string(dept) + "')";
      op.text += "]}";
      for (const Employee& e : emps) {
        if (e.salary > floor && (!by_dept || e.dept == dept)) {
          op.expect_names.push_back(e.name);
        }
      }
      std::sort(op.expect_names.begin(), op.expect_names.end());
      break;
    }
    case kHistory:
      op.account = rng_.Below(n);
      break;
    case kNumKinds:
      break;
  }
  return op;
}

void OpRunner::Prepare(Op* op) {
  const std::string at = "(Accounts at: " + std::to_string(op->account + 1) +
                         ")";
  AccountModel& a = model_->account(op->account);
  switch (op->kind) {
    case kRead:
      if (!op->analytic) {
        op->text = at + " instVarNamed: 'balance'";
        break;
      }
      {
        const std::size_t size = model_->shape().group_size;
        const std::string group =
            "(Groups at: " + std::to_string(op->account / size + 1) + ")";
        const std::int64_t threshold =
            model_->account(op->pivot).acked.load();
        std::int64_t sum = 0, count = 0, max = 0;
        for (std::size_t k = op->account; k < op->account + size; ++k) {
          const std::int64_t b = model_->account(k).acked.load();
          sum += b;
          count += b > threshold ? 1 : 0;
          max = std::max(max, b);
        }
        if (op->variant == 0) {
          op->text = group + " inject: 0 into: [:s :a | s + a balance]";
          op->expect = sum;
        } else if (op->variant == 1) {
          op->text = group + " inject: 0 into: [:n :a | a balance > " +
                     std::to_string(threshold) +
                     " ifTrue: [n + 1] ifFalse: [n]]";
          op->expect = count;
        } else {
          op->text = "| m | m := 0. " + group +
                     " do: [:a | m := m max: a balance]. m";
          op->expect = max;
        }
      }
      break;
    case kWrite:
      op->value = a.acked.load() + 1 + static_cast<std::int64_t>(rng_.Below(100));
      op->text = at + " instVarNamed: 'balance' put: " +
                 std::to_string(op->value);
      break;
    case kHistory: {
      std::lock_guard<std::mutex> lock(a.mu);
      const Version& v = a.versions[rng_.Below(a.versions.size())];
      op->time = v.time;
      op->expect = v.value;
      op->text = at + " elementAt: 'balance' atTime: " + std::to_string(v.time);
      break;
    }
    case kQuery:
    case kNumKinds:
      break;
  }
}

namespace {

bool ParseInt(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::vector<std::string> ParseNames(const std::string& rendered) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while ((pos = rendered.find('\'', pos)) != std::string::npos) {
    const std::size_t end = rendered.find('\'', pos + 1);
    if (end == std::string::npos) break;
    names.push_back(rendered.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool OpRunner::Check(const Op& op, const std::string& answer, std::int64_t lo,
                     std::int64_t hi, std::string* error) const {
  if (op.kind == kQuery) {
    if (ParseNames(answer) == op.expect_names) return true;
    *error = "query " + op.text + " answered " + answer.substr(0, 200);
    return false;
  }
  std::int64_t got = 0;
  if (!ParseInt(answer, &got)) {
    *error = "non-integer answer '" + answer.substr(0, 80) + "' to " +
             op.text.substr(0, 80);
    return false;
  }
  bool ok = false;
  switch (op.kind) {
    case kRead:
      ok = op.analytic ? got == op.expect : (lo <= got && got <= hi);
      break;
    case kWrite:
      ok = got == op.value;
      break;
    case kHistory:
      ok = got == op.expect;
      break;
    default:
      break;
  }
  if (!ok) {
    *error = op.text.substr(0, 80) + " answered " + answer + " (expected " +
             (op.kind == kRead && !op.analytic
                  ? "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]"
                  : std::to_string(op.kind == kWrite ? op.value : op.expect)) +
             ")";
  }
  return ok;
}

bool OpRunner::Run(Conn* conn, Op* op, std::string* error) {
  Prepare(op);
  AccountModel& a = model_->account(op->account);
  switch (op->kind) {
    case kRead:
    case kHistory: {
      const std::int64_t lo = a.acked.load();
      auto r = conn->Execute(op->text);
      const std::int64_t hi = a.sent.load();
      if (!r.ok()) {
        *error = r.status().ToString();
        return false;
      }
      return Check(*op, r.value(), lo, hi, error);
    }
    case kWrite: {
      a.sent.store(op->value);
      auto r = conn->Execute(op->text);
      auto t = conn->Commit();
      if (!r.ok() || !t.ok()) {
        *error = (!r.ok() ? r.status() : t.status()).ToString();
        return false;
      }
      if (!Check(*op, r.value(), 0, 0, error)) return false;
      model_->Acknowledge(op->account, t.value(), op->value);
      return true;
    }
    case kQuery: {
      auto r = conn->Stdm(op->text);
      if (!r.ok()) {
        *error = r.status().ToString();
        return false;
      }
      return Check(*op, r.value(), 0, 0, error);
    }
    case kNumKinds:
      break;
  }
  return false;
}

}  // namespace perfbench
