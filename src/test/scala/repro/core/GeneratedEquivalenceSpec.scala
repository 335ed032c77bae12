package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropertyChecks, SparkSpec}
import repro.baseline.{GllCFPQ, HellingsCFPQ}
import repro.cfg.{CnfGrammar, Earley}
import repro.graph.LabeledGraph

/** Dense, SparseCSR, SparkBlock and SparkDF against the literal Algorithm 1
  * ([[NaiveSetMatrixCFPQ]]) on generated labeled graphs × generated CNF
  * grammars: equal relations, iteration counts and cells added per step.
  * Hellings and GLL give the same relations. Renaming the nodes renames
  * Dense's and SparseCSR's relations and changes nothing else; `k` disjoint
  * copies of a graph give `k` copies of every relation and `k` times each
  * step's growth on Dense, SparseCSR and SparkBlock; edges whose labels no
  * terminal rule derives change nothing on any matrix engine. Every engine
  * but the reference returns its relations as [[Relation]]s, which must
  * equal the reference's `Set`s.
  */
class GeneratedEquivalenceSpec extends SparkSpec with PropertyChecks {
  import GeneratedEquivalenceSpec._

  test("Dense and SparseCSR equal NaiveSetMatrix in relations and iterations (generated graphs x CNF grammars)") {
    checkProperty(Prop.forAllNoShrink(genGraph, genGrammar) { (graph, cnf) =>
      val truth = NaiveSetMatrixCFPQ.solve(graph, cnf)
      agrees("Dense", DenseCFPQ.solve(graph, cnf), truth) &&
        agrees("SparseCSR", SparseCFPQ.solve(graph, cnf), truth)
    }, seed = 1986L, successes = 150)
  }

  test("Hellings equals NaiveSetMatrix in relations, GLL in the start relation (generated graphs x CNF grammars)") {
    checkProperty(Prop.forAllNoShrink(genGraph, genGrammar) { (graph, cnf) =>
      val truth = NaiveSetMatrixCFPQ.solve(graph, cnf)
      val hellings = HellingsCFPQ.solve(graph, cnf)
      val start = cnf.term.head._1
      val gll = new GllCFPQ(Earley.toGrammar(cnf), start).solve(graph)
      agrees("Hellings", hellings, truth.copy(iterations = hellings.iterations, added = hellings.added)) &&
        Prop(packed(gll)) :| "GLL: a relation that is not a Relation" &&
        Prop(gll(start) == truth(start) && truth(start) == gll(start)) :| s"GLL, R_$start"
    }, seed = 1987L, successes = 150)
  }

  test("renaming the nodes renames every relation of Dense and SparseCSR and keeps iterations and growth (generated graphs x CNF grammars)") {
    val renamedGraphs = for {
      graph <- genGraph
      perm <- genPermutation(graph.numNodes)
    } yield (graph, perm)
    checkProperty(Prop.forAllNoShrink(renamedGraphs, genGrammar) { case ((graph, perm), cnf) =>
      val renamed = LabeledGraph(graph.numNodes, graph.edges.map { case (s, l, d) => (perm(s), l, perm(d)) })
      Seq(DenseCFPQ, SparseCFPQ).map { e =>
        val (r, p) = (e.solve(graph, cnf), e.solve(renamed, cnf))
        val expected = r.relations.map { case (nt, rel) => nt -> rel.map { case (s, d) => (perm(s), perm(d)) } }
        Prop(p.relations == expected) :| s"${e.name}: relations not renamed by $perm" &&
          Prop(p.iterations == r.iterations && p.added == r.added) :| s"${e.name}: iterations or growth changed by $perm"
      }.reduce(_ && _)
    }, seed = 1729L, successes = 150)
  }

  test("k disjoint copies of a graph copy every relation, multiply every step's growth by k and keep iterations on Dense, SparseCSR and SparkBlock (generated graphs x CNF grammars, k = 2, 3)") {
    checkProperty(Prop.forAllNoShrink(genGraph, genGrammar, Gen.choose(2, 3), Gen.choose(1, 3)) { (graph, cnf, k, bs) =>
      val n = graph.numNodes
      // Block sizes 1–3: the copies span several blocks, and a block can straddle two copies.
      Seq(DenseCFPQ, SparseCFPQ, new SparkBlockCFPQ(spark, bs)).map { e =>
        val (r, p) = (e.solve(graph, cnf), e.solve(graph.repeat(k), cnf))
        val copies = r.relations.map { case (nt, rel) =>
          nt -> (0 until k).flatMap(c => rel.map { case (s, d) => (s + c * n, d + c * n) }).toSet
        }
        val name = s"${e.name}, k=$k, blockSize $bs"
        Prop(p.relations == copies) :| s"$name: relations are not $k copies" &&
          Prop(p.iterations == r.iterations) :| s"$name: iterations ${p.iterations} vs ${r.iterations}" &&
          Prop(p.added == r.added.map(_.map { case (nt, c) => nt -> k * c })) :| s"$name: growth ${p.added} vs ${r.added}"
      }.reduce(_ && _)
    }, seed = 1988L, successes = 40)
  }

  test("edges whose labels no terminal rule derives change nothing on Dense, SparseCSR, SparkBlock and SparkDF (generated graphs x CNF grammars)") {
    val df = new SparkDataFrameCFPQ(spark)
    // Foreign edges over the graph's nodes and up to 3 new ones, which only they reach.
    val noisyGraphs = for {
      graph <- genGraph
      n <- Gen.choose(math.max(graph.numNodes, 1), graph.numNodes + 3)
      edges <- Gen.listOfN(2 * n, Gen.zip(Gen.choose(0, n - 1), Gen.oneOf(foreignLabels), Gen.choose(0, n - 1)))
    } yield (graph, LabeledGraph(n, graph.edges ++ edges))
    checkProperty(Prop.forAllNoShrink(noisyGraphs, genGrammar, Gen.choose(1, 3)) { case ((graph, noisy), cnf, bs) =>
      Prop(!foreignLabels.exists(cnf.terminals)) :| "a foreign label is a terminal" &&
        Seq(DenseCFPQ, SparseCFPQ, new SparkBlockCFPQ(spark, bs), df).map { e =>
          val (r, p) = (e.solve(graph, cnf), e.solve(noisy, cnf))
          val name = s"${e.name}, ${noisy.edges.length - graph.edges.length} foreign edges over ${noisy.numNodes} nodes, blockSize $bs"
          Prop(p.relations == r.relations) :| s"$name: relations changed" &&
            Prop(p.iterations == r.iterations) :| s"$name: iterations ${p.iterations} vs ${r.iterations}" &&
            Prop(p.added == r.added) :| s"$name: growth ${p.added} vs ${r.added}"
        }.reduce(_ && _)
    }, seed = 1989L, successes = 20)
  }

  test("SparkBlock equals NaiveSetMatrix in relations and iterations and keeps no RDD persisted (block sizes 1, 2, 3, 16)") {
    val sc = spark.sparkContext
    checkProperty(Prop.forAllNoShrink(genGraphUpTo(16), genGrammar, Gen.oneOf(1, 2, 3, 16)) { (graph, cnf, bs) =>
      val persisted = sc.getPersistentRDDs.keySet
      val got = new SparkBlockCFPQ(spark, bs).solve(graph, cnf)
      agrees(s"SparkBlock, blockSize $bs", got, NaiveSetMatrixCFPQ.solve(graph, cnf)) &&
        Prop(sc.getPersistentRDDs.keySet == persisted) :| s"persisted RDDs left by a solve, blockSize $bs"
    }, seed = 2016L, successes = 60)
  }

  test("SparkDF equals NaiveSetMatrix in relations and iterations and keeps no RDD persisted") {
    val sc = spark.sparkContext
    val engine = new SparkDataFrameCFPQ(spark)
    checkProperty(Prop.forAllNoShrink(genGraph, genGrammar) { (graph, cnf) =>
      val persisted = sc.getPersistentRDDs.keySet
      val got = engine.solve(graph, cnf)
      agrees("SparkDF", got, NaiveSetMatrixCFPQ.solve(graph, cnf)) &&
        Prop(sc.getPersistentRDDs.keySet == persisted) :| "persisted RDDs left by a solve"
    }, seed = 2009L, successes = 20)
  }
}

object GeneratedEquivalenceSpec {

  /** Every relation of `r` is a packed [[Relation]]. */
  def packed(r: CFPQResult): Boolean = r.relations.values.forall(_.isInstanceOf[Relation])

  /** `got` is packed and equals `truth`, compared from either side, with
    * equal growth per step even where one side reports none.
    */
  def agrees(engine: String, got: CFPQResult, truth: CFPQResult): Prop =
    Prop(packed(got)) :| s"$engine: a relation that is not a Relation" &&
      Prop(got == truth && truth == got) :| engine &&
      Prop(got.added == truth.added) :| s"$engine: cells added per step ${got.added} vs ${truth.added}"

  /** A permutation of `0 until n`: the order of `n` generated keys. */
  def genPermutation(n: Int): Gen[Vector[Int]] =
    Gen.listOfN(n, Gen.choose(0.0, 1.0)).map(keys => keys.zipWithIndex.sortBy(_._1).map(_._2).toVector)

  private val nonterminals = Seq("A", "B", "C", "D")
  private val terminals = Seq("a", "b", "c")
  /** Edge labels that [[genGrammar]]'s terminal rules never derive. */
  private val foreignLabels = Seq("u", "v", "z")

  /** Up to 9 nodes; see [[genGraphUpTo]]. */
  val genGraph: Gen[LabeledGraph] = genGraphUpTo(9)

  /** Up to `maxNodes` nodes and three edges a node, self-loops included;
    * label `z` matches no terminal rule.
    */
  def genGraphUpTo(maxNodes: Int): Gen[LabeledGraph] = Gen.choose(0, maxNodes).flatMap {
    case 0 => Gen.const(LabeledGraph(0, Vector.empty))
    case n =>
      val edge = for {
        s <- Gen.choose(0, n - 1)
        loop <- Gen.prob(0.15)
        d <- if (loop) Gen.const(s) else Gen.choose(0, n - 1)
        l <- Gen.oneOf(terminals :+ "z")
      } yield (s, l, d)
      Gen.choose(0, 3 * n).flatMap(Gen.listOfN(_, edge)).map(es => LabeledGraph(n, es.toVector))
  }

  /** Random `A → BC` and `A → x` rules over four nonterminals: `A → AA`
    * often, no binary rule at all sometimes, and nonterminals that no edge
    * or rule body can derive.
    */
  val genGrammar: Gen[CnfGrammar] = for {
    term <- Gen.nonEmptyListOf(Gen.zip(Gen.oneOf(nonterminals), Gen.oneOf(terminals :+ "y")))
    k <- Gen.frequency(1 -> Gen.const(0), 5 -> Gen.choose(1, 6))
    binary <- Gen.listOfN(k, Gen.zip(Gen.oneOf(nonterminals), Gen.oneOf(nonterminals), Gen.oneOf(nonterminals)))
    selfRule <- Gen.prob(0.4)
  } yield CnfGrammar(
    binary = (if (selfRule && k > 0) ("A", "A", "A") +: binary else binary).distinct,
    term = term.take(4).distinct,
  )
}
