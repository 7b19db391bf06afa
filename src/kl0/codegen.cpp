#include "kl0/codegen.hpp"

#include "base/logging.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/normalize.hpp"

namespace psi {
namespace kl0 {

namespace {

/** Skeleton addresses for the compound arguments of one clause. */
thread_local std::map<const Term *, std::uint32_t> *t_skelAddrs =
    nullptr;

} // namespace

CodeGen::CodeGen(HeapStore &mem, SymbolTable &syms,
                 CompileOptions opts)
    : _mem(&mem), _syms(&syms), _opts(opts)
{
}

void
CodeGen::emit(const TaggedWord &w)
{
    _mem->poke(LogicalAddr(Area::Heap, _cursor++), w);
}

bool
CodeGen::exprPosition(int builtin, std::size_t i)
{
    if (builtin < 0)
        return false;
    switch (static_cast<Builtin>(builtin)) {
      case Builtin::Is:
        return i == 1;
      case Builtin::Lt:
      case Builtin::Gt:
      case Builtin::Le:
      case Builtin::Ge:
      case Builtin::ArithEq:
      case Builtin::ArithNe:
        return true;
      case Builtin::Tab:
        return i == 0;
      default:
        return false;
    }
}

bool
CodeGen::groundTerm(const TermPtr &t)
{
    if (t->isVar())
        return false;
    for (const auto &a : t->args()) {
        if (!groundTerm(a))
            return false;
    }
    return true;
}

void
CodeGen::analyzeTerm(const TermPtr &t, bool in_skel, bool in_arith,
                     VarMap &vars) const
{
    if (t->isVar()) {
        VarInfo &vi = vars[t->name()];
        ++vi.count;
        vi.inSkel = vi.inSkel || in_skel;
        return;
    }
    // Inside an arithmetic expression skeleton variables are read in
    // place (the expression is never instantiated), so they do not
    // become global.
    for (const auto &a : t->args())
        analyzeTerm(a, !in_arith, in_arith, vars);
}

void
CodeGen::analyze(const Clause &clause, VarMap &vars) const
{
    for (const auto &arg : clause.head->args())
        analyzeTerm(arg, false, false, vars);
    for (const auto &goal : clause.body) {
        int b = builtinIndex(goal->name(),
                             static_cast<std::uint32_t>(goal->arity()));
        for (std::size_t i = 0; i < goal->args().size(); ++i) {
            analyzeTerm(goal->args()[i], false, exprPosition(b, i),
                        vars);
        }
    }
}

void
CodeGen::assignSlots(VarMap &vars, std::uint32_t &nlocals,
                     std::uint32_t &nglobals)
{
    nlocals = 0;
    nglobals = 0;
    for (auto &kv : vars) {
        VarInfo &vi = kv.second;
        vi.global = vi.inSkel;
        vi.isVoid = vi.count == 1 && !vi.pinned;
        if (vi.isVoid)
            continue;
        if (vi.global)
            vi.slot = static_cast<std::uint16_t>(nglobals++);
        else
            vi.slot = static_cast<std::uint16_t>(nlocals++);
    }
}

TaggedWord
CodeGen::skeletonElement(const TermPtr &t, VarMap &vars)
{
    switch (t->kind()) {
      case Term::Kind::Atom:
        if (t->isNil())
            return {Tag::Nil, 0};
        return {Tag::Atom, _syms->atom(t->name())};
      case Term::Kind::Int:
        return TaggedWord::makeInt(static_cast<std::int32_t>(t->value()));
      case Term::Kind::Var: {
        const VarInfo &vi = vars.at(t->name());
        if (vi.isVoid)
            return {Tag::SkelVar, kSkelVoidBit};
        PSI_ASSERT(vi.global || _exprSkel,
                   "skeleton variable must be global");
        return {Tag::SkelVar, VarSlot{vi.global, vi.slot}.encode()};
      }
      case Term::Kind::Compound: {
        std::uint32_t addr = emitSkeleton(t, vars);
        return {t->isCons() ? Tag::List : Tag::Struct,
                LogicalAddr(Area::Heap, addr).pack()};
      }
    }
    panic("unreachable skeleton element");
}

std::uint32_t
CodeGen::emitSkeleton(const TermPtr &t, VarMap &vars)
{
    PSI_ASSERT(t->isCompound(), "skeleton must be compound");
    // Children first (depth-first), so the parent cell can reference
    // them; the parent's own words must be contiguous.
    std::vector<TaggedWord> elems;
    elems.reserve(t->arity() + 1);
    if (!t->isCons()) {
        elems.push_back(
            {Tag::Functor,
             _syms->functor(t->name(),
                            static_cast<std::uint32_t>(t->arity()))});
    }
    for (const auto &a : t->args())
        elems.push_back(skeletonElement(a, vars));

    std::uint32_t addr = here();
    for (const auto &w : elems)
        emit(w);
    return addr;
}

bool
CodeGen::packable(const TermPtr &arg, const VarMap &vars) const
{
    switch (arg->kind()) {
      case Term::Kind::Int:
        return arg->value() >= 0 && arg->value() < 32;
      case Term::Kind::Var: {
        const VarInfo &vi = vars.at(arg->name());
        return vi.isVoid || vi.slot < 32;
      }
      default:
        return false;
    }
}

std::uint32_t
CodeGen::packOperand(const TermPtr &arg, VarMap &vars)
{
    if (arg->isInt())
        return (kPackSmallInt << 5) |
               static_cast<std::uint32_t>(arg->value());
    const VarInfo &vi = vars.at(arg->name());
    if (vi.isVoid)
        return kPackVoid << 5;
    return ((vi.global ? kPackGlobalVar : kPackLocalVar) << 5) | vi.slot;
}

void
CodeGen::emitGoalArgs(const TermPtr &goal, VarMap &vars)
{
    const std::vector<TermPtr> &args = goal->args();
    int b = builtinIndex(goal->name(),
                         static_cast<std::uint32_t>(goal->arity()));
    if (!args.empty() && args.size() <= 4) {
        bool all_packed = true;
        for (const auto &a : args)
            all_packed = all_packed && packable(a, vars);
        if (all_packed) {
            std::uint32_t data = 0;
            for (std::size_t i = 0; i < args.size(); ++i)
                data |= packOperand(args[i], vars) << (8 * i);
            emit({Tag::PackedArgs, data});
            return;
        }
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
        const TermPtr &arg = args[i];
        switch (arg->kind()) {
          case Term::Kind::Atom:
            if (arg->isNil())
                emit({Tag::ANil, 0});
            else
                emit({Tag::AConst, _syms->atom(arg->name())});
            break;
          case Term::Kind::Int:
            emit({Tag::AInt,
                  static_cast<std::uint32_t>(
                      static_cast<std::int32_t>(arg->value()))});
            break;
          case Term::Kind::Var: {
            const VarInfo &vi = vars.at(arg->name());
            if (vi.isVoid)
                emit({Tag::AVoid, 0});
            else
                emit({Tag::AVar, VarSlot{vi.global, vi.slot}.encode()});
            break;
          }
          case Term::Kind::Compound: {
            auto it = t_skelAddrs->find(arg.get());
            PSI_ASSERT(it != t_skelAddrs->end(), "missing skeleton");
            std::uint32_t addr =
                LogicalAddr(Area::Heap, it->second).pack();
            if (exprPosition(b, i) && !arg->isCons()) {
                // Evaluated in place by the arithmetic firmware.
                emit({Tag::AExpr, addr});
            } else if (groundTerm(arg)) {
                // Ground terms are shared directly from the heap
                // image (structure-sharing style): no copy is made.
                emit({arg->isCons() ? Tag::AGroundList
                                    : Tag::AGroundStruct,
                      addr});
            } else {
                emit({arg->isCons() ? Tag::AList : Tag::AStruct,
                      addr});
            }
            break;
          }
        }
    }
}

void
CodeGen::emitHeadArg(const TermPtr &arg, VarMap &vars)
{
    switch (arg->kind()) {
      case Term::Kind::Atom:
        if (arg->isNil())
            emit({Tag::HNil, 0});
        else
            emit({Tag::HConst, _syms->atom(arg->name())});
        break;
      case Term::Kind::Int:
        emit({Tag::HInt,
              static_cast<std::uint32_t>(
                  static_cast<std::int32_t>(arg->value()))});
        break;
      case Term::Kind::Var: {
        VarInfo &vi = vars.at(arg->name());
        if (vi.isVoid) {
            emit({Tag::HVoid, 0});
        } else {
            Tag t = vi.introduced ? Tag::HVarS : Tag::HVarF;
            vi.introduced = true;
            emit({t, VarSlot{vi.global, vi.slot}.encode()});
        }
        break;
      }
      case Term::Kind::Compound: {
        auto it = t_skelAddrs->find(arg.get());
        PSI_ASSERT(it != t_skelAddrs->end(), "missing skeleton");
        std::uint32_t addr =
            LogicalAddr(Area::Heap, it->second).pack();
        if (groundTerm(arg)) {
            emit({arg->isCons() ? Tag::HGroundList
                                : Tag::HGroundStruct,
                  addr});
            break;
        }
        emit({arg->isCons() ? Tag::HList : Tag::HStruct, addr});
        // Variables inside this skeleton may now be bound; later
        // top-level head occurrences must unify, not overwrite.
        for (const auto &v : collectVars(arg)) {
            auto vit = vars.find(v->name());
            if (vit != vars.end())
                vit->second.introduced = true;
        }
        break;
      }
    }
}

std::uint32_t
CodeGen::compileClause(const Clause &clause, VarMap &vars)
{
    std::uint32_t arity =
        static_cast<std::uint32_t>(clause.head->arity());
    if (arity > kMaxArity) {
        fatal("predicate ", clause.head->name(), "/", arity,
              ": arity exceeds the ", kMaxArity,
              " argument registers");
    }

    analyze(clause, vars);
    std::uint32_t nlocals = 0;
    std::uint32_t nglobals = 0;
    assignSlots(vars, nlocals, nglobals);
    if (nlocals > kMaxLocals) {
        fatal("clause of ", clause.head->name(), "/", arity, " needs ",
              nlocals, " local slots; the frame buffer holds ",
              kMaxLocals);
    }
    if (nglobals > 255) {
        fatal("clause of ", clause.head->name(), "/", arity, " needs ",
              nglobals, " global slots; the header field holds 255");
    }

    // Emit skeletons for every compound argument first; clause code
    // itself must be contiguous for sequential instruction fetch.
    std::map<const Term *, std::uint32_t> skels;
    t_skelAddrs = &skels;
    for (const auto &arg : clause.head->args()) {
        if (arg->isCompound())
            skels[arg.get()] = emitSkeleton(arg, vars);
    }
    for (const auto &goal : clause.body) {
        int b = builtinIndex(goal->name(),
                             static_cast<std::uint32_t>(goal->arity()));
        for (std::size_t i = 0; i < goal->args().size(); ++i) {
            const TermPtr &arg = goal->args()[i];
            if (!arg->isCompound())
                continue;
            _exprSkel = exprPosition(b, i);
            skels[arg.get()] = emitSkeleton(arg, vars);
            _exprSkel = false;
        }
    }

    std::uint32_t addr = here();
    emit({Tag::ClauseHeader,
          arity | (nlocals << 8) | (nglobals << 16)});
    for (const auto &arg : clause.head->args())
        emitHeadArg(arg, vars);

    for (std::size_t gi = 0; gi < clause.body.size(); ++gi) {
        const TermPtr &goal = clause.body[gi];
        if (goal->isAtom() && goal->name() == "!") {
            emit({Tag::CutOp, 0});
            continue;
        }
        std::uint32_t goal_arity =
            static_cast<std::uint32_t>(goal->arity());
        if (goal_arity > kMaxArity) {
            fatal("goal ", goal->name(), "/", goal_arity,
                  ": arity exceeds the machine limit");
        }
        int b = builtinIndex(goal->name(), goal_arity);
        if (b >= 0) {
            Tag op = Tag::CallBuiltin;
            if (_opts.specializeBuiltins) {
                switch (static_cast<Builtin>(b)) {
                  case Builtin::Is:
                    op = Tag::CallIs;
                    break;
                  case Builtin::Lt:
                  case Builtin::Gt:
                  case Builtin::Le:
                  case Builtin::Ge:
                  case Builtin::ArithEq:
                  case Builtin::ArithNe:
                    op = Tag::CallCmp;
                    break;
                  default:
                    break;
                }
            }
            emit({op, static_cast<std::uint32_t>(b)});
        } else {
            std::uint32_t f = _syms->functor(goal->name(), goal_arity);
            PSI_ASSERT(f < kDirWords, "predicate directory overflow");
            // The final goal of a body is marked so the interpreter
            // can apply the tail-recursion optimization.
            bool last = gi + 1 == clause.body.size();
            emit({last ? Tag::CallLast : Tag::Call, f});
        }
        emitGoalArgs(goal, vars);
    }
    emit({Tag::Proceed, 0});
    t_skelAddrs = nullptr;
    return addr;
}

int
CodeGen::clauseKeySlot(std::uint32_t clause_addr,
                       std::uint32_t *key) const
{
    // The first head-argument descriptor sits right after the
    // ClauseHeader word, so the key of any already-emitted clause -
    // including clauses from an earlier incremental consult - can be
    // recovered from the image itself.
    TaggedWord d =
        _mem->peek(LogicalAddr(Area::Heap, clause_addr + 1));
    switch (d.tag) {
      case Tag::HConst:
        *key = d.data;
        return static_cast<int>(kIdxSlotAtom);
      case Tag::HInt:
        *key = d.data;
        return static_cast<int>(kIdxSlotInt);
      case Tag::HNil:
        return static_cast<int>(kIdxSlotNil);
      case Tag::HList:
      case Tag::HGroundList:
        return static_cast<int>(kIdxSlotList);
      case Tag::HStruct:
      case Tag::HGroundStruct:
        // The skeleton's first word is its Functor word.
        *key = _mem->peek(LogicalAddr::unpack(d.data)).data;
        return static_cast<int>(kIdxSlotStruct);
      default:
        // HVarF / HVarS / HVoid: matches any first argument.
        return 0;
    }
}

std::uint32_t
CodeGen::emitIndex(const std::vector<std::uint32_t> &addrs,
                   std::uint32_t linear_table)
{
    struct Entry
    {
        std::uint32_t addr;
        int slot;
        std::uint32_t key;
    };
    std::vector<Entry> entries;
    entries.reserve(addrs.size());
    bool any_keyed = false;
    for (auto a : addrs) {
        std::uint32_t key = 0;
        int slot = clauseKeySlot(a, &key);
        entries.push_back({a, slot, key});
        any_keyed = any_keyed || slot != 0;
    }
    if (!any_keyed)
        return 0;

    // Chain of the clauses selected by @p want, merged with the
    // variable-headed clauses, in original source order.
    auto emitChain = [&](auto &&want) {
        std::uint32_t t = here();
        for (const auto &e : entries) {
            if (e.slot == 0 || want(e))
                emit({Tag::ClauseRef, e.addr});
        }
        emit({Tag::EndClauses, 0});
        return t;
    };
    // The var-only chain serves three roles: the dispatch word of a
    // class no clause uses, the hash miss chain (a bound key no
    // clause mentions), and the empty-bucket case.
    std::uint32_t var_chain =
        emitChain([](const Entry &) { return false; });

    // Nil/list classes carry no key: one chain each.
    auto chainFor = [&](int s) {
        bool has = false;
        for (const auto &e : entries)
            has = has || e.slot == s;
        if (!has)
            return TaggedWord{Tag::ClauseRef, var_chain};
        return TaggedWord{
            Tag::ClauseRef,
            emitChain([s](const Entry &e) { return e.slot == s; })};
    };
    // Atom/int/struct classes hash their key to a bucket chain.
    auto hashFor = [&](int s, Tag key_tag) {
        std::vector<std::uint32_t> keys;  // distinct, first-seen
        for (const auto &e : entries) {
            if (e.slot != s)
                continue;
            bool seen = false;
            for (auto k : keys)
                seen = seen || k == e.key;
            if (!seen)
                keys.push_back(e.key);
        }
        if (keys.empty())
            return TaggedWord{Tag::ClauseRef, var_chain};
        std::vector<std::uint32_t> buckets;
        buckets.reserve(keys.size());
        for (auto k : keys) {
            buckets.push_back(emitChain([&](const Entry &e) {
                return e.slot == s && e.key == k;
            }));
        }
        std::uint32_t nslots = 2;
        while (nslots < 2 * keys.size())
            nslots <<= 1;
        std::vector<TaggedWord> tbl(2 * nslots,
                                    TaggedWord{Tag::Undef, 0});
        for (std::size_t i = 0; i < keys.size(); ++i) {
            std::uint32_t h = indexKeyHash(keys[i]) & (nslots - 1);
            while (tbl[2 * h].tag != Tag::Undef)
                h = (h + 1) & (nslots - 1);
            tbl[2 * h] = {key_tag, keys[i]};
            tbl[2 * h + 1] = {Tag::ClauseRef, buckets[i]};
        }
        std::uint32_t block = here();
        emit({Tag::Int, nslots});
        emit({Tag::ClauseRef, var_chain});
        for (const auto &w : tbl)
            emit(w);
        return TaggedWord{Tag::IndexHash, block};
    };

    // Dispatch words must exist before the root referencing them.
    TaggedWord atom_w = hashFor(static_cast<int>(kIdxSlotAtom),
                                Tag::Atom);
    TaggedWord int_w = hashFor(static_cast<int>(kIdxSlotInt),
                               Tag::Int);
    TaggedWord nil_w = chainFor(static_cast<int>(kIdxSlotNil));
    TaggedWord list_w = chainFor(static_cast<int>(kIdxSlotList));
    TaggedWord struct_w = hashFor(static_cast<int>(kIdxSlotStruct),
                                  Tag::Functor);

    std::uint32_t root = here();
    emit({Tag::IndexRoot, linear_table});
    emit(atom_w);
    emit(int_w);
    emit(nil_w);
    emit(list_w);
    emit(struct_w);
    return root;
}

void
CodeGen::compilePredicate(const PredId &id,
                          const std::vector<Clause> &clauses)
{
    std::uint32_t f = _syms->functor(id.name, id.arity);
    PSI_ASSERT(f < kDirWords, "predicate directory overflow");

    // Incremental consulting appends: the new clause table holds the
    // previously compiled clauses followed by the new ones.
    std::vector<std::uint32_t> &addrs = _clauses[f];
    for (const auto &cl : clauses) {
        VarMap vars;
        addrs.push_back(compileClause(cl, vars));
    }

    std::uint32_t table = here();
    for (auto a : addrs)
        emit({Tag::ClauseRef, a});
    emit({Tag::EndClauses, 0});

    TaggedWord dir{Tag::ClauseRef, table};
    if (_opts.firstArgIndexing && addrs.size() > 1 &&
        id.arity > 0) {
        std::uint32_t root = emitIndex(addrs, table);
        if (root != 0)
            dir = {Tag::IndexRef, root};
    }
    _mem->poke(LogicalAddr(Area::Heap, kDirBase + f), dir);
}

void
CodeGen::compile(const Program &program)
{
    for (const auto &id : program.predicates())
        compilePredicate(id, program.clauses(id));
}

QueryCode
CodeGen::compileQuery(const TermPtr &goal)
{
    Program aux;
    std::vector<TermPtr> flat = normalizeGoal(goal, aux);
    compile(normalize(aux));

    Clause clause;
    clause.head =
        Term::atom("$query" + std::to_string(++_queryCounter));
    clause.body = std::move(flat);
    // A trailing `true` built-in keeps the final user goal from being
    // a last call, so the query's own frame and environment survive
    // to solution extraction instead of being tail-call-optimized
    // away.
    clause.body.push_back(Term::atom("true"));

    VarMap vars;
    // Pin every named variable of the whole query so its binding
    // survives to extraction.
    for (const auto &v : collectVars(goal)) {
        if (!v->name().empty() && v->name()[0] != '_')
            vars[v->name()].pinned = true;
    }

    std::uint32_t addr = compileClause(clause, vars);
    std::uint32_t table = here();
    emit({Tag::ClauseRef, addr});
    emit({Tag::EndClauses, 0});

    QueryCode qc;
    qc.functorIdx = _syms->functor(clause.head->name(), 0);
    PSI_ASSERT(qc.functorIdx < kDirWords, "directory overflow");
    _mem->poke(LogicalAddr(Area::Heap, kDirBase + qc.functorIdx),
               {Tag::ClauseRef, table});

    TaggedWord hdr = _mem->peek(LogicalAddr(Area::Heap, addr));
    qc.nlocals = (hdr.data >> 8) & 0xff;
    qc.nglobals = (hdr.data >> 16) & 0xff;
    for (const auto &kv : vars) {
        if (kv.second.isVoid)
            continue;
        if (kv.first.empty() || kv.first[0] == '_' ||
            kv.first[0] == '$')
            continue;
        qc.vars[kv.first] =
            SlotRef{kv.second.global, kv.second.slot};
    }
    return qc;
}

} // namespace kl0
} // namespace psi
