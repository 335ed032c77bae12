package repro.cfg

import org.scalatest.funsuite.AnyFunSuite

class GrammarSpec extends AnyFunSuite {

  test("parse: single rule with alternatives") {
    val g = Grammar.parse("S -> a S b | a b")
    assert(g.productions.size == 2)
    assert(g.nonterminals == Set("S"))
    assert(g.terminals == Set("a", "b"))
  }

  test("parse: multi-rule grammar classifies symbols by lhs membership") {
    val g = Grammar.parse("S -> A B", "A -> a", "B -> b")
    assert(g.nonterminals == Set("S", "A", "B"))
    assert(g.terminals == Set("a", "b"))
    assert(g.productions.find(_.lhs == "S").get.rhs == Seq(N("A"), N("B")))
  }

  test("parse: eps keyword produces an empty rhs") {
    val g = Grammar.parse("S -> a S | eps")
    assert(g.productions.exists(_.rhs.isEmpty))
  }

  test("parse: terminals with punctuation-ish names survive") {
    val g = Grammar.parse("S -> subClassOf_r S subClassOf | subClassOf_r subClassOf")
    assert(g.terminals == Set("subClassOf_r", "subClassOf"))
  }

  test("nonterminals include rhs-only nonterminal references") {
    // B appears only in a rhs of a grammar where it is also an lhs elsewhere;
    // here make one that is genuinely rhs-only via direct construction.
    val g = Grammar(Seq(Production("S", Seq(N("Dangling")))))
    assert(g.nonterminals == Set("S", "Dangling"))
  }

  test("production toString renders ε for empty rhs") {
    assert(Production("S", Seq.empty).toString == "S -> ε")
    assert(Production("S", Seq(T("a"), N("S"))).toString == "S -> a S")
  }

  test("CnfGrammar indexes: byTerminal, byPair, byFirst, bySecond") {
    val g = CnfGrammar(
      binary = Seq(("S", "A", "B"), ("S", "B", "A"), ("X", "A", "B")),
      term = Seq(("A", "a"), ("B", "b"), ("S", "a")),
    )
    assert(g.byTerminal("a") == Set("A", "S"))
    assert(g.byPair(("A", "B")) == Set("S", "X"))
    assert(g.byFirst("A").toSet == Set(("S", "B"), ("X", "B")))
    assert(g.bySecond("A").toSet == Set(("S", "B")))
    assert(g.nonterminals == Set("S", "A", "B", "X"))
    assert(g.terminals == Set("a", "b"))
  }

  test("CnfGrammar.toGrammar round-trips productions") {
    val g = CnfGrammar(binary = Seq(("S", "A", "B")), term = Seq(("A", "a"), ("B", "b")))
    val plain = Earley.toGrammar(g)
    assert(plain.productions.toSet == Set(
      Production("S", Seq(N("A"), N("B"))),
      Production("A", Seq(T("a"))),
      Production("B", Seq(T("b"))),
    ))
  }

  test("CnfGrammar requires at least one terminal rule") {
    assertThrows[IllegalArgumentException] {
      CnfGrammar(binary = Seq(("S", "A", "B")), term = Seq.empty)
    }
  }

  test("Queries.q1 has the paper's four productions") {
    assert(Queries.q1.productions.size == 4)
    assert(Queries.q1.nonterminals == Set("S"))
    assert(Queries.q1.terminals ==
      Set("subClassOf", "subClassOf_r", "type", "type_r"))
  }

  test("Queries.q2 has the paper's four productions over subClassOf only") {
    assert(Queries.q2.productions.size == 4)
    assert(Queries.q2.nonterminals == Set("S", "B"))
    assert(Queries.q2.terminals == Set("subClassOf", "subClassOf_r"))
  }

  test("Queries.q1CnfPaper matches paper Fig. 4 rule counts") {
    assert(Queries.q1CnfPaper.binary.size == 6)
    assert(Queries.q1CnfPaper.term.size == 4)
    assert(Queries.q1CnfPaper.nonterminals ==
      Set("S", "S1", "S2", "S3", "S4", "S5", "S6"))
  }
}
