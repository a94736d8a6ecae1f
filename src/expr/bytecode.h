#ifndef GAPPLY_EXPR_BYTECODE_H_
#define GAPPLY_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/row_batch.h"
#include "src/common/value.h"
#include "src/expr/expr.h"

namespace gapply {

/// \brief A bound Expr tree flattened into linear register-based bytecode,
/// executed column-at-a-time over a whole batch per instruction.
///
/// Registers are typed vectors (int64 doubles as bool 0/1, double, borrowed
/// string pointers) paired with a byte-per-row NULL mask; constants and
/// correlated outer values are stride-0 scalar registers broadcast over the
/// batch. Instructions are emitted in post-order
/// (left subtree, right subtree, combine), matching the order the tree
/// interpreter's general batch path evaluates — and therefore surfacing
/// runtime errors ("division by zero", "modulo by zero") identically.
///
/// The compiler is deliberately partial: any node whose static operand
/// types would make the interpreter raise a *value-dependent* type error
/// (non-numeric arithmetic, type-mismatched comparison, non-bool logic,
/// non-bool predicate result, NULL-typed column references) is declined
/// with a reason naming the node, and the owning operator falls back to the
/// interpreter for that expression. What does compile is bit-for-bit
/// identical to the interpreter, errors included (DESIGN.md §14).
///
/// A program holds per-execution register storage, so it is single-threaded
/// like the operator that owns it; parallel worker clones compile their own.
class ExprProgram {
 public:
  /// Compiles `expr` for evaluation over RowBatch input. Fails with a
  /// reason string (Status::NotImplemented) when a node is unsupported.
  static Result<std::unique_ptr<ExprProgram>> Compile(const Expr& expr);

  /// Compile() plus the predicate gate: the program's result must be
  /// statically bool (or the always-NULL literal), since the interpreter's
  /// non-bool-predicate error embeds the offending value.
  static Result<std::unique_ptr<ExprProgram>> CompilePredicate(
      const Expr& pred);

  /// Evaluates over every row of `batch`, filling `*out` (cleared first)
  /// with one Value per row — the bytecode twin of Expr::EvalBatch.
  Status EvalBatch(const RowBatch& batch, const EvalContext& ctx,
                   std::vector<Value>* out);

  /// Predicate form: one 0/1 keep flag per row, SQL WHERE semantics
  /// (NULL rejects) — the bytecode twin of EvalPredicateBatch.
  Status EvalPredicateBatch(const RowBatch& batch, const EvalContext& ctx,
                            std::vector<char>* keep);

  size_t num_instructions() const { return instrs_.size(); }

  /// One instruction per line, e.g. "r2 <- cmp.gt.i64 r0 r1" — for tests
  /// and debugging.
  std::string ToString() const;

 private:
  enum class OpCode : uint8_t {
    kLoadCol,    // dst <- batch column [imm]
    kLoadOuter,  // dst <- outer_rows[depth=imm][index=imm2], broadcast
    kCastIToD,
    kAddI,
    kSubI,
    kMulI,
    kDivI,
    kModI,
    kAddD,
    kSubD,
    kMulD,
    kDivD,
    kNegI,
    kNegD,
    kCmpI,   // also bool-vs-bool (bools live in i64 registers as 0/1)
    kCmpD,
    kCmpS,
    kAnd,
    kOr,
    kNot,
    kIsNull,
    kIsNotNull,
  };

  /// How value registers are stored/viewed. Bool shares kI64 (0/1).
  enum class RegType : uint8_t { kI64, kF64, kStr };

  struct Instr {
    OpCode op;
    value_ops::CmpOp cmp = value_ops::CmpOp::kEq;  // kCmp* only
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    int32_t imm = 0;   // column index / outer depth
    int32_t imm2 = 0;  // outer index
  };

  /// A typed register: owned storage for loads and instruction results,
  /// plus the views the execution loops read through. stride 0 broadcasts
  /// element 0 over the batch (constants, outer values, NULL scalars).
  struct Register {
    RegType rtype = RegType::kI64;
    /// Static value type of the expression node this register holds; drives
    /// result materialization and the outer-load runtime type check.
    TypeId vtype = TypeId::kNull;
    /// Scalar register: storage holds one element, views are stride 0.
    /// Filled at compile time for constants, per execution for outer refs.
    bool scalar = false;

    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;
    std::vector<uint8_t> null;
    std::string str_store;  // backing for scalar string values

    const int64_t* pi = nullptr;
    const double* pd = nullptr;
    const std::string* const* ps = nullptr;
    const uint8_t* pn = nullptr;
    size_t stride = 1;
  };

  ExprProgram() = default;

  class Compiler;  // tree walker; declared in bytecode.cc

  static RegType RegTypeFor(TypeId t);

  uint16_t AllocRegister(RegType rtype, TypeId vtype);
  uint16_t AllocConst(const Value& v);
  uint16_t AllocNullScalar(TypeId vtype);

  /// Points every scratch register's views at its (resized) owned storage
  /// and every scalar register's views at its element 0.
  void BindScratch(size_t n);
  /// Executes all instructions over every row of `batch`; scratch must be
  /// bound to `batch.size()` rows.
  Status Run(const RowBatch& batch, const EvalContext& ctx);

  std::vector<Instr> instrs_;
  std::vector<Register> regs_;
  /// Result register of Compile()/CompilePredicate() programs.
  uint16_t result_reg_ = 0;
  TypeId result_type_ = TypeId::kNull;
};

}  // namespace gapply

#endif  // GAPPLY_EXPR_BYTECODE_H_
