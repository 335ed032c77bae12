package repro.cfg

import org.scalatest.funsuite.AnyFunSuite

class CYKSpec extends AnyFunSuite {

  // a^n b^n in CNF: S -> A X | A B ; X -> S B ; A -> a ; B -> b
  private val anbn = CnfGrammar(
    binary = Seq(("S", "A", "X"), ("S", "A", "B"), ("X", "S", "B")),
    term = Seq(("A", "a"), ("B", "b")),
  )

  test("a^n b^n CNF accepts balanced words") {
    for (n <- 1 to 6)
      assert(CYK.accepts(anbn, "S", Seq.fill(n)("a") ++ Seq.fill(n)("b")), s"n=$n")
  }

  test("a^n b^n CNF rejects everything else up to length 6") {
    val bad = for {
      len <- 1 to 6
      w <- Seq.fill(len)(Seq("a", "b")).foldLeft(Seq(Seq.empty[String]))((acc, cs) =>
        acc.flatMap(p => cs.map(p :+ _)))
      if !(w.length % 2 == 0 && w == Seq.fill(w.length / 2)("a") ++ Seq.fill(w.length / 2)("b"))
    } yield w
    bad.foreach(w => assert(!CYK.accepts(anbn, "S", w), w.mkString))
  }

  test("empty word is rejected (CNF here is ε-free, as in the paper)") {
    assert(!CYK.accepts(anbn, "S", Seq.empty))
  }

  test("single-terminal words use terminal rules only") {
    assert(!CYK.accepts(anbn, "S", Seq("a")))
    assert(CYK.accepts(anbn, "A", Seq("a")))
    assert(CYK.accepts(anbn, "B", Seq("b")))
    assert(!CYK.accepts(anbn, "A", Seq("b")))
  }

  test("parse table exposes all deriving nonterminals per span") {
    val t = CYK.parseTable(anbn, Seq("a", "a", "b", "b"))
    assert(t(0)(1) == Set("A"))
    assert(t(1)(2) == Set("A"))
    assert(t(2)(3) == Set("B"))
    assert(t(1)(3) == Set("S"))   // a b
    assert(t(1)(4) == Set("X"))   // a b b  => S B
    assert(t(0)(4) == Set("S"))   // a a b b
  }

  test("paper Fig. 4 CNF accepts the same-generation words of the example") {
    val g = Queries.q1CnfPaper
    assert(CYK.accepts(g, "S", Seq("type_r", "type")))
    assert(CYK.accepts(g, "S", Seq("subClassOf_r", "subClassOf")))
    assert(CYK.accepts(g, "S", Seq("subClassOf_r", "type_r", "type", "subClassOf")))
    assert(!CYK.accepts(g, "S", Seq("subClassOf_r", "type")))
    assert(!CYK.accepts(g, "S", Seq("type", "type_r")))
  }

  test("CYK agrees with Earley on the CNF grammar viewed as plain grammar") {
    val plain = Earley.toGrammar(anbn)
    val words = for {
      len <- 1 to 5
      w <- Seq.fill(len)(Seq("a", "b")).foldLeft(Seq(Seq.empty[String]))((acc, cs) =>
        acc.flatMap(p => cs.map(p :+ _)))
    } yield w
    words.foreach { w =>
      assert(CYK.accepts(anbn, "S", w) == Earley.accepts(plain, "S", w), w.mkString)
    }
  }
}
