#include "prog/asm_parser.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/kv.hh"
#include "common/logging.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace prog {

namespace {

/** Register-name table: r0..r31 plus conventional aliases. */
int
regNumber(const std::string &tok)
{
    static const std::map<std::string, int> aliases = {
        {"zero", 0}, {"at", 1},  {"v0", 2},  {"v1", 3},  {"a0", 4},
        {"a1", 5},   {"a2", 6},  {"a3", 7},  {"t0", 8},  {"t1", 9},
        {"t2", 10},  {"t3", 11}, {"t4", 12}, {"t5", 13}, {"t6", 14},
        {"t7", 15},  {"s0", 16}, {"s1", 17}, {"s2", 18}, {"s3", 19},
        {"s4", 20},  {"s5", 21}, {"s6", 22}, {"s7", 23}, {"t8", 24},
        {"t9", 25},  {"k0", 26}, {"k1", 27}, {"gp", 28}, {"sp", 29},
        {"fp", 30},  {"ra", 31},
    };
    auto it = aliases.find(tok);
    if (it != aliases.end())
        return it->second;
    if (tok.size() >= 2 && tok[0] == 'r') {
        char *end = nullptr;
        long v = std::strtol(tok.c_str() + 1, &end, 10);
        if (end && *end == '\0' && v >= 0 && v < 32)
            return static_cast<int>(v);
    }
    return -1;
}

/** One parsed line: mnemonic + raw operand tokens. */
struct Statement
{
    unsigned lineNo = 0;
    std::string mnemonic;
    std::vector<std::string> operands;
};

class Parser
{
  public:
    Parser(const std::string &source, const std::string &name)
        : program_(), asmr_(program_)
    {
        program_.name = name;
        std::istringstream in(source);
        std::string line;
        unsigned line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            parseLine(line, line_no);
        }
        asmr_.finalize();
    }

    Program take() { return std::move(program_); }

  private:
    [[noreturn]] void
    bad(unsigned line_no, const std::string &msg) const
    {
        fatal("asm line %u: %s", line_no, msg.c_str());
    }

    static std::vector<std::string>
    tokenize(const std::string &text)
    {
        std::vector<std::string> toks;
        std::string cur;
        for (char c : text) {
            if (std::isspace(static_cast<unsigned char>(c)) ||
                c == ',') {
                if (!cur.empty()) {
                    toks.push_back(cur);
                    cur.clear();
                }
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            toks.push_back(cur);
        return toks;
    }

    RegIndex
    reg(const std::string &tok, unsigned line_no) const
    {
        int r = regNumber(tok);
        if (r < 0)
            bad(line_no, "bad register '" + tok + "'");
        return static_cast<RegIndex>(r);
    }

    std::int64_t
    integer(const std::string &tok, unsigned line_no) const
    {
        char *end = nullptr;
        errno = 0;
        long long v = std::strtoll(tok.c_str(), &end, 0);
        if (tok.empty() || !end || *end != '\0' || errno == ERANGE)
            bad(line_no, "bad integer '" + tok + "'");
        return v;
    }

    /** integer() restricted to [@p lo, @p hi]. */
    std::int64_t
    integerIn(const std::string &tok, std::int64_t lo, std::int64_t hi,
              unsigned line_no) const
    {
        std::int64_t v = integer(tok, line_no);
        if (v < lo || v > hi)
            bad(line_no, "'" + tok + "' out of range [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
        return v;
    }

    /** A 16-bit immediate field: zero-extended ops (andi/ori/xori,
     *  lui, syscall) hold 0..65535, the rest -32768..32767. */
    std::int32_t
    imm16(const std::string &tok, isa::Opcode op, unsigned line_no) const
    {
        bool zext = op == isa::Opcode::ANDI || op == isa::Opcode::ORI ||
                    op == isa::Opcode::XORI || op == isa::Opcode::LUI ||
                    op == isa::Opcode::SYSCALL;
        return static_cast<std::int32_t>(
            zext ? integerIn(tok, 0, 65535, line_no)
                 : integerIn(tok, -32768, 32767, line_no));
    }

    double
    floating(const std::string &tok, unsigned line_no) const
    {
        double v = 0.0;
        if (!common::kv::parseF64(tok, v))
            bad(line_no, "bad number '" + tok + "'");
        return v;
    }

    /** Symbol, optionally with +offset. */
    Addr
    symbol(const std::string &tok, unsigned line_no) const
    {
        std::string name = tok;
        Addr off = 0;
        auto plus = tok.find('+');
        if (plus != std::string::npos) {
            name = tok.substr(0, plus);
            off = static_cast<Addr>(integerIn(tok.substr(plus + 1), 0,
                                              INT64_MAX, line_no));
        }
        auto it = symbols_.find(name);
        if (it == symbols_.end())
            bad(line_no, "unknown symbol '" + name + "'");
        return it->second + off;
    }

    /** Parse "off(base)". */
    void
    memOperand(const std::string &tok, unsigned line_no,
               std::int32_t &off, RegIndex &base) const
    {
        auto open = tok.find('(');
        auto close = tok.find(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open)
            bad(line_no, "bad memory operand '" + tok + "'");
        std::string off_str = tok.substr(0, open);
        off = off_str.empty()
                  ? 0
                  : static_cast<std::int32_t>(
                        integerIn(off_str, -32768, 32767, line_no));
        base = reg(tok.substr(open + 1, close - open - 1), line_no);
    }

    void
    parseLine(std::string line, unsigned line_no)
    {
        // Strip comments.
        for (char marker : {';', '#'}) {
            auto pos = line.find(marker);
            if (pos != std::string::npos)
                line.resize(pos);
        }
        // Peel leading labels ("name:").
        for (;;) {
            std::size_t i = 0;
            while (i < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[i])))
                ++i;
            std::size_t j = i;
            while (j < line.size() &&
                   (std::isalnum(static_cast<unsigned char>(
                        line[j])) ||
                    line[j] == '_'))
                ++j;
            if (j > i && j < line.size() && line[j] == ':') {
                asmr_.label(line.substr(i, j - i));
                line = line.substr(j + 1);
                continue;
            }
            break;
        }

        std::vector<std::string> toks = tokenize(line);
        if (toks.empty())
            return;
        Statement st;
        st.lineNo = line_no;
        st.mnemonic = toks[0];
        st.operands.assign(toks.begin() + 1, toks.end());
        emit(st);
    }

    void
    require(const Statement &st, std::size_t count) const
    {
        if (st.operands.size() != count)
            bad(st.lineNo, st.mnemonic + " expects " +
                               std::to_string(count) + " operands");
    }

    void
    emit(const Statement &st)
    {
        const auto &m = st.mnemonic;
        unsigned n = st.lineNo;

        // Directives --------------------------------------------------
        if (m == ".global" || m == ".heap") {
            require(st, 2);
            std::uint64_t size = static_cast<std::uint64_t>(
                integerIn(st.operands[1], 1, INT64_MAX, n));
            Addr base = m == ".global"
                            ? program_.allocGlobal(size)
                            : program_.allocHeap(size);
            symbols_[st.operands[0]] = base;
            return;
        }
        if (m == ".word" || m == ".dword" || m == ".double") {
            require(st, 3);
            Addr addr = symbol(st.operands[0], n) +
                        static_cast<Addr>(
                            integer(st.operands[1], n));
            if (m == ".word") {
                // Signed or unsigned 32-bit values both fit the word.
                program_.poke32(addr, static_cast<std::uint32_t>(
                                          integerIn(st.operands[2],
                                                    INT32_MIN,
                                                    UINT32_MAX, n)));
            } else if (m == ".dword") {
                program_.poke64(addr, static_cast<std::uint64_t>(
                                          integer(st.operands[2], n)));
            } else {
                program_.pokeDouble(addr, floating(st.operands[2], n));
            }
            return;
        }
        if (m == ".stack") {
            require(st, 1);
            program_.stackSize = static_cast<Addr>(
                integer(st.operands[0], n));
            return;
        }
        if (m == ".text") {
            return; // accepted for familiarity; no effect
        }

        // Pseudo-instructions ----------------------------------------
        if (m == "li") {
            require(st, 2);
            asmr_.li(reg(st.operands[0], n),
                     integer(st.operands[1], n));
            return;
        }
        if (m == "la") {
            require(st, 2);
            asmr_.la(reg(st.operands[0], n),
                     symbol(st.operands[1], n));
            return;
        }
        if (m == "move") {
            require(st, 2);
            asmr_.move(reg(st.operands[0], n),
                       reg(st.operands[1], n));
            return;
        }

        // Real instructions, dispatched by opcode metadata -----------
        int opval = -1;
        for (int i = 0;
             i < static_cast<int>(isa::Opcode::NUM_OPCODES); ++i) {
            if (m == isa::opInfo(static_cast<isa::Opcode>(i))
                         .mnemonic) {
                opval = i;
                break;
            }
        }
        if (opval < 0)
            bad(n, "unknown mnemonic '" + m + "'");
        auto op = static_cast<isa::Opcode>(opval);

        isa::Instruction inst;
        inst.op = op;
        switch (isa::opInfo(op).format) {
          case isa::Format::None:
            require(st, 0);
            break;
          case isa::Format::RRR:
            require(st, 3);
            inst.rd = reg(st.operands[0], n);
            inst.rs = reg(st.operands[1], n);
            inst.rt = reg(st.operands[2], n);
            break;
          case isa::Format::RRI:
            if (op == isa::Opcode::CVTIF ||
                op == isa::Opcode::CVTFI) {
                require(st, 2);
                inst.rd = reg(st.operands[0], n);
                inst.rs = reg(st.operands[1], n);
            } else {
                require(st, 3);
                inst.rd = reg(st.operands[0], n);
                inst.rs = reg(st.operands[1], n);
                inst.imm = imm16(st.operands[2], op, n);
            }
            break;
          case isa::Format::RI:
            require(st, 2);
            inst.rd = reg(st.operands[0], n);
            inst.imm = imm16(st.operands[1], op, n);
            break;
          case isa::Format::Mem: {
            require(st, 2);
            std::int32_t off = 0;
            RegIndex base = 0;
            memOperand(st.operands[1], n, off, base);
            isa::Instruction tmp;
            tmp.op = op;
            if (tmp.isLoad())
                inst.rd = reg(st.operands[0], n);
            else
                inst.rt = reg(st.operands[0], n);
            inst.rs = base;
            inst.imm = off;
            break;
          }
          case isa::Format::Branch: {
            require(st, 3);
            RegIndex rs = reg(st.operands[0], n);
            RegIndex rt = reg(st.operands[1], n);
            // Delegate to the Assembler's label fixups.
            switch (op) {
              case isa::Opcode::BEQ:
                asmr_.beq(rs, rt, st.operands[2]);
                return;
              case isa::Opcode::BNE:
                asmr_.bne(rs, rt, st.operands[2]);
                return;
              case isa::Opcode::BLT:
                asmr_.blt(rs, rt, st.operands[2]);
                return;
              default:
                asmr_.bge(rs, rt, st.operands[2]);
                return;
            }
          }
          case isa::Format::Jump:
            require(st, 1);
            if (op == isa::Opcode::J)
                asmr_.j(st.operands[0]);
            else
                asmr_.jal(st.operands[0]);
            return;
          case isa::Format::JumpReg:
            require(st, 1);
            inst.rs = reg(st.operands[0], n);
            break;
          case isa::Format::Sys:
            require(st, 1);
            inst.imm = imm16(st.operands[0], op, n);
            break;
        }
        asmr_.emit(inst);
    }

    Program program_;
    Assembler asmr_;
    std::map<std::string, Addr> symbols_;
};

} // namespace

Program
assembleSource(const std::string &source, const std::string &name)
{
    Parser parser(source, name);
    return parser.take();
}

Program
assembleFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open assembly file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return assembleSource(buf.str(), path);
}

} // namespace prog
} // namespace dscalar
